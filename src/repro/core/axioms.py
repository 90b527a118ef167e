"""The four axioms of the framework (Fig. 5).

Each axiom is a function from a candidate :class:`~repro.core.execution.Execution`
plus the architecture-supplied relations to an optional
:class:`AxiomViolation`.  ``None`` means the axiom holds.

The SC PER LOCATION axiom comes in two variants: the standard one and
the "llh" variant used for testing ARM machines that exhibit the
load-load hazard bug (read-read pairs removed from ``po-loc``).
Similarly PROPAGATION comes in the standard acyclicity form and the
weakened ``irreflexive(prop; co)`` form used for C++ R-A (Sec. 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.execution import Execution
from repro.core.relation import Relation

AXIOM_SC_PER_LOCATION = "SC PER LOCATION"
AXIOM_NO_THIN_AIR = "NO THIN AIR"
AXIOM_OBSERVATION = "OBSERVATION"
AXIOM_PROPAGATION = "PROPAGATION"

ALL_AXIOMS = (
    AXIOM_SC_PER_LOCATION,
    AXIOM_NO_THIN_AIR,
    AXIOM_OBSERVATION,
    AXIOM_PROPAGATION,
)


@dataclass(frozen=True)
class AxiomViolation:
    """A violated axiom together with a witnessing cycle (when available)."""

    axiom: str
    cycle: Optional[tuple] = None

    def describe(self) -> str:
        if not self.cycle:
            return self.axiom
        names = " -> ".join(e.eid for e in self.cycle)
        return f"{self.axiom}: {names}"


def _acyclic_violation(axiom: str, relation: Relation) -> Optional[AxiomViolation]:
    cycle = relation.find_cycle()
    if cycle is None:
        return None
    return AxiomViolation(axiom, tuple(cycle))


def check_sc_per_location(
    execution: Execution, variant: str = "standard"
) -> Optional[AxiomViolation]:
    """``acyclic(po-loc ∪ com)``.

    ``variant`` may be ``"standard"`` or ``"llh"`` (load-load hazard:
    read-read pairs are removed from ``po-loc``, Tab. VII).
    """
    po_loc = execution.po_loc
    if variant == "llh":
        po_loc = po_loc - execution.restrict_rr(po_loc)
    elif variant != "standard":
        raise ValueError(f"unknown SC PER LOCATION variant: {variant!r}")
    return _acyclic_violation(AXIOM_SC_PER_LOCATION, po_loc | execution.com)


def check_no_thin_air(execution: Execution, hb: Relation) -> Optional[AxiomViolation]:
    """``acyclic(hb)`` with ``hb = ppo ∪ fences ∪ rfe``."""
    return _acyclic_violation(AXIOM_NO_THIN_AIR, hb)


def _irreflexive_violation(axiom: str, relation: Relation) -> Optional[AxiomViolation]:
    event = relation.first_reflexive()
    if event is None:
        return None
    return AxiomViolation(axiom, (event,))


def check_observation(
    execution: Execution, prop: Relation, hb: Relation
) -> Optional[AxiomViolation]:
    """``irreflexive(fre; prop; hb*)``."""
    if not prop:
        return None
    hb_star = hb.reflexive_transitive_closure(execution.memory_events)
    return _irreflexive_violation(
        AXIOM_OBSERVATION, execution.fre.seq(prop).seq(hb_star)
    )


def check_propagation(
    execution: Execution, prop: Relation, variant: str = "acyclic"
) -> Optional[AxiomViolation]:
    """``acyclic(co ∪ prop)`` — or, for C++ R-A, ``irreflexive(prop; co)``."""
    if variant == "acyclic":
        return _acyclic_violation(AXIOM_PROPAGATION, execution.co | prop)
    if variant == "irreflexive_prop_co":
        return _irreflexive_violation(AXIOM_PROPAGATION, prop.seq(execution.co))
    raise ValueError(f"unknown PROPAGATION variant: {variant!r}")
