"""The preserved program order of Power and ARM (Fig. 25).

The definition distinguishes two parts of every memory event — its
*init* part and its *commit* part — and defines four mutually recursive
relations with a least-fixpoint semantics:

* ``ii`` relates init parts to init parts,
* ``ic`` init to commit,
* ``ci`` commit to init,
* ``cc`` commit to commit.

The base cases are (Fig. 25)::

    dp      = addr | data
    rdw     = po-loc & (fre; rfe)
    detour  = po-loc & (coe; rfe)
    ii0     = dp | rdw | rfi
    ic0     = 0
    ci0     = ctrl+cfence | detour
    cc0     = dp | po-loc | ctrl | (addr; po)        (Power)
    cc0     = dp | ctrl | (addr; po)                 (proposed ARM, Tab. VII)

and the fixpoint equations::

    ii = ii0 | ci | (ic; ci) | (ii; ii)
    ic = ic0 | ii | cc | (ic; cc) | (ii; ic)
    ci = ci0 | (ci; ii) | (cc; ci)
    cc = cc0 | ci | (ci; ic) | (cc; cc)

Finally ``ppo = (ii ∩ RR) ∪ (ic ∩ RW)``.

The module also provides the "static" variant discussed at the end of
Sec. 8.2 (``rdw`` removed from ``ii0`` and ``detour`` removed from
``ci0``), used by the ablation benchmark.

Only ``ii0`` and ``ci0`` depend on rf and co.  ``cc0`` is computed once
per combination of thread paths, and the fixpoint — run on packed ints
(:mod:`repro.core.bitrel`) — once per distinct ``(ii0, ci0)`` in it,
both through the memo the combination's executions share
(:meth:`~repro.core.execution.Execution.shared`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.bitrel import seq
from repro.core.execution import Execution
from repro.core.relation import Relation, common_bits


@dataclass(frozen=True)
class PpoComponents:
    """The fixpoint solution; useful for debugging and for tests."""

    ii: Relation
    ic: Relation
    ci: Relation
    cc: Relation
    ppo: Relation


def _fixpoint(
    ii0: int, ci0: int, cc0: int, n: int, col0: int
) -> Tuple[int, int, int, int]:
    """Least fixpoint of the four recursive equations of Fig. 25, on
    packed relations over one ``n``-event index (``ic0`` is empty).

    This is the hottest loop of a Power/ARM model check; working on
    plain ints sidesteps one Relation allocation per operator per
    iteration.
    """
    ii, ic, ci, cc = ii0, 0, ci0, cc0
    while True:
        new_ii = ii0 | ci | seq(ic, ci, n, col0) | seq(ii, ii, n, col0)
        new_ic = ii | cc | seq(ic, cc, n, col0) | seq(ii, ic, n, col0)
        new_ci = ci0 | seq(ci, ii, n, col0) | seq(cc, ci, n, col0)
        new_cc = cc0 | ci | seq(ci, ic, n, col0) | seq(cc, cc, n, col0)
        if new_ii == ii and new_ic == ic and new_ci == ci and new_cc == cc:
            return ii, ic, ci, cc
        ii, ic, ci, cc = new_ii, new_ic, new_ci, new_cc


def ppo_components(
    execution: Execution,
    include_po_loc_in_cc0: bool = True,
    include_rdw: bool = True,
    include_detour: bool = True,
) -> PpoComponents:
    """Compute the ii/ic/ci/cc fixpoint and the resulting ppo.

    Parameters
    ----------
    include_po_loc_in_cc0:
        True for Power (and the "Power-ARM" model); False for the
        proposed ARM model of Tab. VII, which removes ``po-loc`` from
        ``cc0`` to account for the early-commit behaviours of Fig. 32/33.
    include_rdw / include_detour:
        Setting either to False gives the "more static" ppo variant
        discussed at the end of Sec. 8.2.
    """
    rdw = execution.rdw if include_rdw else Relation.empty()
    detour = execution.detour if include_detour else Relation.empty()

    ii0 = execution.dp | rdw | execution.rfi
    ci0 = execution.ctrl_cfence | detour
    cc0_of = _power_cc0 if include_po_loc_in_cc0 else _arm_cc0
    cc0 = execution.shared(cc0_of)

    # Within one combination the solution depends on ii0 and ci0 only.
    index, (ii0_bits, ci0_bits, cc0_bits) = common_bits(ii0, ci0, cc0)
    key = (cc0_of, index, ii0_bits, ci0_bits)
    components = execution.memo.get(key)
    if components is None:
        ii, ic, ci, cc = _fixpoint(ii0_bits, ci0_bits, cc0_bits, index.n, index.col0)
        reads = index.reads_mask
        ppo = (ii & index.pair_mask(reads, reads)) | (
            ic & index.pair_mask(reads, index.writes_mask)
        )
        components = execution.memo[key] = PpoComponents(
            *(Relation.from_bits(index, bits) for bits in (ii, ic, ci, cc, ppo))
        )
    return components


def _arm_cc0(execution: Execution) -> Relation:
    """``cc0`` of the proposed ARM model: ``dp | ctrl | (addr; po)``."""
    return execution.dp | execution.ctrl | execution.addr.seq(execution.po)


def _power_cc0(execution: Execution) -> Relation:
    """``cc0`` of Power: ARM's plus ``po-loc``."""
    return execution.shared(_arm_cc0) | execution.po_loc


def power_ppo(execution: Execution) -> Relation:
    """Preserved program order for Power (Fig. 25)."""
    return ppo_components(execution, include_po_loc_in_cc0=True).ppo


def arm_ppo(execution: Execution) -> Relation:
    """Preserved program order for the proposed ARM model (Tab. VII)."""
    return ppo_components(execution, include_po_loc_in_cc0=False).ppo


def static_power_ppo(execution: Execution) -> Relation:
    """Ablation: Power ppo without the dynamic rdw/detour components."""
    return ppo_components(
        execution,
        include_po_loc_in_cc0=True,
        include_rdw=False,
        include_detour=False,
    ).ppo


def static_arm_ppo(execution: Execution) -> Relation:
    """Ablation: ARM ppo without the dynamic rdw/detour components."""
    return ppo_components(
        execution,
        include_po_loc_in_cc0=False,
        include_rdw=False,
        include_detour=False,
    ).ppo
