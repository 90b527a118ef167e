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
per combination of thread paths, and the fixpoint once per distinct
``(ii0, ci0)`` in it, both through the memo the combination's
executions share (:meth:`~repro.core.execution.Execution.shared`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.bitrel import rows_seq
from repro.core.execution import Execution
from repro.core.relation import Relation


@dataclass(frozen=True)
class PpoComponents:
    """The fixpoint solution; useful for debugging and for tests."""

    ii: Relation
    ic: Relation
    ci: Relation
    cc: Relation
    ppo: Relation


def _fixpoint(
    ii0: Relation, ic0: Relation, ci0: Relation, cc0: Relation
) -> Tuple[Relation, Relation, Relation, Relation]:
    """Least fixpoint of the four recursive equations of Fig. 25."""
    ii, ic, ci, cc = ii0, ic0, ci0, cc0
    while True:
        new_ii = ii0 | ci | ic.seq(ci) | ii.seq(ii)
        new_ic = ic0 | ii | cc | ic.seq(cc) | ii.seq(ic)
        new_ci = ci0 | ci.seq(ii) | cc.seq(ci)
        new_cc = cc0 | ci | ci.seq(ic) | cc.seq(cc)
        if (new_ii, new_ic, new_ci, new_cc) == (ii, ic, ci, cc):
            return ii, ic, ci, cc
        ii, ic, ci, cc = new_ii, new_ic, new_ci, new_cc


def _fixpoint_rows(
    ii0: List[int], ic0: List[int], ci0: List[int], cc0: List[int]
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """The same fixpoint, run on raw successor rows of the bitmask kernel.

    This is the hottest loop of a Power/ARM model check; working on
    plain lists of ints sidesteps one Relation allocation per operator
    per iteration.
    """
    ii, ic, ci, cc = list(ii0), list(ic0), list(ci0), list(cc0)
    indices = range(len(ii))
    while True:
        ic_ci = rows_seq(ic, ci)
        ii_ii = rows_seq(ii, ii)
        new_ii = [ii0[i] | ci[i] | ic_ci[i] | ii_ii[i] for i in indices]
        ic_cc = rows_seq(ic, cc)
        ii_ic = rows_seq(ii, ic)
        new_ic = [ic0[i] | ii[i] | cc[i] | ic_cc[i] | ii_ic[i] for i in indices]
        ci_ii = rows_seq(ci, ii)
        cc_ci = rows_seq(cc, ci)
        new_ci = [ci0[i] | ci_ii[i] | cc_ci[i] for i in indices]
        ci_ic = rows_seq(ci, ic)
        cc_cc = rows_seq(cc, cc)
        new_cc = [cc0[i] | ci[i] | ci_ic[i] | cc_cc[i] for i in indices]
        if (new_ii, new_ic, new_ci, new_cc) == (ii, ic, ci, cc):
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
    rdw = execution.rdw if include_rdw else Relation()
    detour = execution.detour if include_detour else Relation()

    ii0 = execution.dp | rdw | execution.rfi
    ic0 = Relation()
    ci0 = execution.ctrl_cfence | detour
    cc0_of = _power_cc0 if include_po_loc_in_cc0 else _arm_cc0
    cc0 = execution.shared(cc0_of)

    index = ii0._index
    if (
        index is not None
        and ci0._index is index
        and cc0._index is index
    ):
        # Kernel fast path: iterate on raw rows, wrap once at the end.
        # Within one combination the solution depends on ii0 and ci0 only.
        key = (cc0_of, ii0._rows, ci0._rows)
        components = execution.memo.get(key)
        if components is not None:
            return components
        zero = [0] * index.n
        ii_r, ic_r, ci_r, cc_r = _fixpoint_rows(
            list(ii0._rows), zero, list(ci0._rows), list(cc0._rows)
        )
        reads_mask = index.reads_mask
        writes_mask = index.writes_mask
        ppo_rows = [
            ((ii_r[i] & reads_mask) | (ic_r[i] & writes_mask))
            if reads_mask >> i & 1
            else 0
            for i in range(index.n)
        ]
        components = execution.memo[key] = PpoComponents(
            ii=Relation.from_rows(index, ii_r),
            ic=Relation.from_rows(index, ic_r),
            ci=Relation.from_rows(index, ci_r),
            cc=Relation.from_rows(index, cc_r),
            ppo=Relation.from_rows(index, ppo_rows),
        )
        return components

    ii, ic, ci, cc = _fixpoint(ii0, ic0, ci0, cc0)
    ppo = execution.restrict_rr(ii) | execution.restrict_rw(ic)
    return PpoComponents(ii=ii, ic=ic, ci=ci, cc=cc, ppo=ppo)


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
