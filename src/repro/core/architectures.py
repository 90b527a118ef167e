"""The instances of the framework used in the paper.

* SC, TSO and C++ R-A (Fig. 21);
* Power (Figs. 17, 18, 25, 38);
* the "Power-ARM" model (the Power model read literally on ARM), the
  proposed ARM model and the "ARM llh" testing variant (Tab. VII);
* a PLDI-2011-style comparison variant reproducing the documented
  experimental differences with Sarkar et al.'s operational model
  (it forbids ``mp+lwsync+addr-po-detour`` and the ARM ``fri-rfi``
  behaviours);
* "static" ablation variants of Power and ARM (Sec. 8.2: rdw and detour
  removed from the ppo).

All are exposed both as factory functions and through the
``ARCHITECTURES`` registry / :func:`get_architecture`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.execution import Execution
from repro.core.model import Architecture, no_relation
from repro.core.ppo_power import arm_ppo, power_ppo, static_arm_ppo, static_power_ppo
from repro.core.relation import Relation


# ---------------------------------------------------------------------------
# Fence helpers (Fig. 17)
# ---------------------------------------------------------------------------

def power_ffence(execution: Execution) -> Relation:
    """Power full fence: sync."""
    return execution.fence("sync")


def power_lwfence(execution: Execution) -> Relation:
    """Power lightweight fences: ``lwsync \\ WR`` plus ``eieio ∩ WW``."""
    lwsync = execution.fence("lwsync")
    lwsync = lwsync - execution.restrict_wr(lwsync)
    eieio = execution.restrict_ww(execution.fence("eieio"))
    return lwsync | eieio


def power_fences(execution: Execution) -> Relation:
    return power_ffence(execution) | power_lwfence(execution)


def arm_ffence(execution: Execution) -> Relation:
    """ARM full fences: dmb, dsb, and the .st variants limited to WW pairs."""
    full = execution.fence("dmb", "dsb")
    st = execution.restrict_ww(execution.fence("dmb.st", "dsb.st"))
    return full | st


def arm_lwfence(execution: Execution) -> Relation:
    """The proposed ARM model has no lightweight fence (Fig. 17)."""
    return Relation.empty()


def arm_fences(execution: Execution) -> Relation:
    return arm_ffence(execution) | arm_lwfence(execution)


def tso_ffence(execution: Execution) -> Relation:
    return execution.fence("mfence")


# ---------------------------------------------------------------------------
# Propagation orders
# ---------------------------------------------------------------------------

def _cumulative_prop(
    execution: Execution, fences: Relation, hb: Relation, ffence: Relation
) -> Relation:
    """The Power/ARM propagation order (Fig. 18).

    ::

        hb        = ppo ∪ fences ∪ rfe
        A-cumul   = rfe; fences
        prop-base = (fences ∪ A-cumul); hb*
        prop      = (prop-base ∩ WW) ∪ (com*; prop-base*; ffence; hb*)

    Both halves go through a fence, so without fences prop is empty.
    """
    if not fences and not ffence:
        return Relation.empty()
    events = execution.memory_events
    hb_star = hb.reflexive_transitive_closure(events)
    a_cumul = execution.rfe.seq(fences)
    prop_base = (fences | a_cumul).seq(hb_star)
    com_star = execution.com.reflexive_transitive_closure(events)
    prop_base_star = prop_base.reflexive_transitive_closure(events)
    strong = com_star.seq(prop_base_star).seq(ffence).seq(hb_star)
    return execution.restrict_ww(prop_base) | strong


def power_prop(
    execution: Execution, ppo: Relation, fences: Relation, hb: Relation
) -> Relation:
    return _cumulative_prop(execution, fences, hb, execution.shared(power_ffence))


def arm_prop(
    execution: Execution, ppo: Relation, fences: Relation, hb: Relation
) -> Relation:
    return _cumulative_prop(execution, fences, hb, execution.shared(arm_ffence))


def sc_prop(
    execution: Execution, ppo: Relation, fences: Relation, hb: Relation
) -> Relation:
    """SC (Fig. 21): prop = ppo ∪ fences ∪ rf ∪ fr."""
    return ppo | fences | execution.rf | execution.fr


def tso_prop(
    execution: Execution, ppo: Relation, fences: Relation, hb: Relation
) -> Relation:
    """TSO (Fig. 21): prop = ppo ∪ fences ∪ rfe ∪ fr."""
    return ppo | fences | execution.rfe | execution.fr


def cpp_ra_prop(
    execution: Execution, ppo: Relation, fences: Relation, hb: Relation
) -> Relation:
    """C++ R-A (Fig. 21): prop = hb+ with hb = sb ∪ rf."""
    return (ppo | fences | execution.rf).transitive_closure()


# ---------------------------------------------------------------------------
# Preserved program orders for the strong models
# ---------------------------------------------------------------------------

def sc_ppo(execution: Execution) -> Relation:
    return execution.po

def tso_ppo(execution: Execution) -> Relation:
    """TSO preserves everything but write-read pairs (po \\ WR)."""
    return execution.shared(_po_without_wr)


def _po_without_wr(execution: Execution) -> Relation:
    return execution.po - execution.restrict_wr(execution.po)


def pldi2011_ppo(execution: Execution) -> Relation:
    """Power ppo strengthened the way the PLDI 2011 machine behaves.

    The machine of Sarkar et al. additionally orders a read with any
    po-later read reached through an address dependency followed by
    program order (their commit-time treatment of detours), which makes
    it forbid ``mp+lwsync+addr-po-detour`` — a behaviour observed on
    Power hardware (Fig. 36) — and the ARM ``fri-rfi`` behaviours
    (Fig. 32).  See DESIGN.md, substitution table.
    """
    base = power_ppo(execution)
    addr_po = execution.addr.seq(execution.po)
    return base | execution.restrict_rr(addr_po)


# ---------------------------------------------------------------------------
# Architecture instances
# ---------------------------------------------------------------------------

def sc_architecture() -> Architecture:
    """Lamport's Sequential Consistency (Fig. 21)."""
    return Architecture(
        name="sc",
        ppo_fn=sc_ppo,
        fences_fn=no_relation,
        prop_fn=sc_prop,
        description="Sequential Consistency (Lamport 1979)",
    )


def tso_architecture() -> Architecture:
    """Sparc/x86 Total Store Order (Fig. 21)."""
    return Architecture(
        name="tso",
        ppo_fn=tso_ppo,
        fences_fn=tso_ffence,
        prop_fn=tso_prop,
        ffence_fn=tso_ffence,
        description="Total Store Order (Sparc TSO / x86)",
    )


def cpp_ra_architecture() -> Architecture:
    """C++ restricted to release-acquire atomics (Fig. 21, Sec. 4.8)."""
    return Architecture(
        name="cpp-ra",
        ppo_fn=sc_ppo,  # sequenced-before
        fences_fn=no_relation,
        prop_fn=cpp_ra_prop,
        propagation_variant="irreflexive_prop_co",
        description="C++ release-acquire fragment",
    )


def power_architecture() -> Architecture:
    """IBM Power (Figs. 17, 18, 25, 38)."""
    return Architecture(
        name="power",
        ppo_fn=power_ppo,
        fences_fn=power_fences,
        prop_fn=power_prop,
        ffence_fn=power_ffence,
        description="IBM Power",
    )


def power_static_architecture() -> Architecture:
    """Ablation: Power with the static ppo (no rdw, no detour) — Sec. 8.2."""
    return Architecture(
        name="power-static-ppo",
        ppo_fn=static_power_ppo,
        fences_fn=power_fences,
        prop_fn=power_prop,
        ffence_fn=power_ffence,
        description="Power with rdw/detour removed from the ppo",
    )


def power_arm_architecture() -> Architecture:
    """The "Power-ARM" model: Power's ppo read literally with ARM fences."""
    return Architecture(
        name="power-arm",
        ppo_fn=power_ppo,
        fences_fn=arm_fences,
        prop_fn=arm_prop,
        ffence_fn=arm_ffence,
        description="Power model instantiated on ARM (Tab. VII, first column)",
    )


def arm_architecture() -> Architecture:
    """The proposed ARM model (Tab. VII): cc0 without po-loc."""
    return Architecture(
        name="arm",
        ppo_fn=arm_ppo,
        fences_fn=arm_fences,
        prop_fn=arm_prop,
        ffence_fn=arm_ffence,
        description="Proposed ARM model (early commit allowed)",
    )


def arm_llh_architecture() -> Architecture:
    """The "ARM llh" testing model: ARM plus load-load hazards allowed."""
    return Architecture(
        name="arm-llh",
        ppo_fn=arm_ppo,
        fences_fn=arm_fences,
        prop_fn=arm_prop,
        ffence_fn=arm_ffence,
        sc_per_location_variant="llh",
        description="ARM model allowing load-load hazards (Tab. VII)",
    )


def arm_static_architecture() -> Architecture:
    """Ablation: ARM with the static ppo (no rdw, no detour) — Sec. 8.2."""
    return Architecture(
        name="arm-static-ppo",
        ppo_fn=static_arm_ppo,
        fences_fn=arm_fences,
        prop_fn=arm_prop,
        ffence_fn=arm_ffence,
        description="ARM with rdw/detour removed from the ppo",
    )


def pldi2011_architecture() -> Architecture:
    """Comparison variant standing in for the PLDI 2011 operational model."""
    return Architecture(
        name="pldi2011",
        ppo_fn=pldi2011_ppo,
        fences_fn=power_fences,
        prop_fn=power_prop,
        ffence_fn=power_ffence,
        description="Sarkar et al. PLDI 2011 model (stronger ppo; flawed w.r.t. hardware)",
    )


ARCHITECTURES: Dict[str, Callable[[], Architecture]] = {
    "sc": sc_architecture,
    "tso": tso_architecture,
    "cpp-ra": cpp_ra_architecture,
    "power": power_architecture,
    "power-static-ppo": power_static_architecture,
    "power-arm": power_arm_architecture,
    "arm": arm_architecture,
    "arm-llh": arm_llh_architecture,
    "arm-static-ppo": arm_static_architecture,
    "pldi2011": pldi2011_architecture,
}


def get_architecture(name: str) -> Architecture:
    """Look an architecture up by name (case-insensitive)."""
    key = name.lower()
    if key not in ARCHITECTURES:
        known = ", ".join(sorted(ARCHITECTURES))
        raise KeyError(f"unknown architecture {name!r}; known: {known}")
    return ARCHITECTURES[key]()
