"""Architectures and the generic model (Fig. 5).

An :class:`Architecture` is the triple of functions ``(ppo, fences,
prop)`` of Sec. 4.1, plus two switches selecting axiom variants
(SC PER LOCATION standard vs llh; PROPAGATION acyclic vs the C++ R-A
irreflexive form).

A :class:`Model` pairs an architecture with the four axioms and decides
whether a candidate execution is valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import axioms
from repro.core.axioms import AxiomViolation
from repro.core.execution import Execution
from repro.core.relation import Relation

RelationFn = Callable[[Execution], Relation]
PropFn = Callable[[Execution, Relation, Relation, Relation], Relation]


def no_relation(execution: Execution) -> Relation:
    """The empty relation: the fences of a model without fences, and
    the default full fence.  A module-level function, so architectures
    using it pickle."""
    return Relation.empty()


@dataclass(frozen=True)
class Architecture:
    """An instance of the framework: ``(ppo, fences, prop)`` plus variants.

    ``fences_fn`` and ``ffence_fn`` read only the fields every candidate
    of one combination of thread paths has in common (events, po, the
    fence relations), never ``rf`` or ``co`` — true of all the
    architectures in :mod:`repro.core.architectures`.  :meth:`fences`
    and :meth:`ffence` therefore compute them once per combination,
    through :meth:`Execution.shared
    <repro.core.execution.Execution.shared>`.

    Attributes
    ----------
    name:
        Short identifier, e.g. ``"power"``, ``"tso"``.
    ppo_fn:
        Execution -> preserved program order.
    fences_fn:
        Execution -> the ``fences`` relation (union of the fence
        relations relevant to the architecture, already direction
        filtered, e.g. ``lwsync \\ WR`` on Power).
    prop_fn:
        (Execution, ppo, fences, hb) -> the propagation order, given the
        execution's ``hb`` (:meth:`hb`) so that a prop built on it
        shares its closures with the axioms.
    ffence_fn:
        Execution -> the full-fence relation (used by the operational
        machine and by prop on Power/ARM); defaults to the empty relation.
    sc_per_location_variant:
        ``"standard"`` or ``"llh"``.
    propagation_variant:
        ``"acyclic"`` or ``"irreflexive_prop_co"`` (C++ R-A).
    """

    name: str
    ppo_fn: RelationFn
    fences_fn: RelationFn
    prop_fn: PropFn
    ffence_fn: RelationFn = no_relation
    sc_per_location_variant: str = "standard"
    propagation_variant: str = "acyclic"
    description: str = ""

    def ppo(self, execution: Execution) -> Relation:
        return self.ppo_fn(execution)

    def fences(self, execution: Execution) -> Relation:
        return execution.shared(self.fences_fn)

    def ffence(self, execution: Execution) -> Relation:
        return execution.shared(self.ffence_fn)

    def prop(self, execution: Execution, ppo: Optional[Relation] = None,
             fences: Optional[Relation] = None,
             hb: Optional[Relation] = None) -> Relation:
        if ppo is None:
            ppo = self.ppo(execution)
        if fences is None:
            fences = self.fences(execution)
        if hb is None:
            hb = self.hb(execution, ppo, fences)
        return self.prop_fn(execution, ppo, fences, hb)

    def hb(self, execution: Execution, ppo: Optional[Relation] = None,
           fences: Optional[Relation] = None) -> Relation:
        """Happens-before: ``ppo ∪ fences ∪ rfe``."""
        if ppo is None:
            ppo = self.ppo(execution)
        if fences is None:
            fences = self.fences(execution)
        return ppo | fences | execution.rfe

    def relations(self, execution: Execution) -> Dict[str, Relation]:
        """All architecture-level relations of an execution, by name."""
        ppo = self.ppo(execution)
        fences = self.fences(execution)
        hb = self.hb(execution, ppo, fences)
        prop = self.prop_fn(execution, ppo, fences, hb)
        return {
            "ppo": ppo,
            "fences": fences,
            "prop": prop,
            "hb": hb,
            "ffence": self.ffence(execution),
        }


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one candidate execution against a model."""

    allowed: bool
    violations: Tuple[AxiomViolation, ...] = ()

    @property
    def forbidden(self) -> bool:
        return not self.allowed

    def violated_axioms(self) -> Tuple[str, ...]:
        return tuple(v.axiom for v in self.violations)

    def describe(self) -> str:
        if self.allowed:
            return "allowed"
        return "forbidden by " + ", ".join(v.describe() for v in self.violations)


class Model:
    """The generic weak memory model of Fig. 5, instantiated by an architecture."""

    def __init__(self, architecture: Architecture):
        self.architecture = architecture

    @property
    def name(self) -> str:
        return self.architecture.name

    def check(
        self,
        execution: Execution,
        stop_at_first: bool = False,
        assume_sc_per_location: bool = False,
    ) -> CheckResult:
        """Check the four axioms on a candidate execution.

        When ``stop_at_first`` is True the check returns as soon as one
        axiom fails (faster for plain allowed/forbidden queries); when
        False every violated axiom is reported, which the anomaly
        classification of Tab. VIII relies on.

        ``assume_sc_per_location`` skips the SC PER LOCATION axiom: the
        planned engine (:mod:`repro.herd.optimal`) only emits
        candidates it has already proven uniproc-consistent, so the
        check would always pass.
        """
        arch = self.architecture
        violations: List[AxiomViolation] = []

        if not assume_sc_per_location:
            violation = axioms.check_sc_per_location(
                execution, arch.sc_per_location_variant
            )
            if violation is not None:
                violations.append(violation)
                if stop_at_first:
                    return CheckResult(False, tuple(violations))

        ppo = arch.ppo(execution)
        fences = arch.fences(execution)
        hb = arch.hb(execution, ppo, fences)

        violation = axioms.check_no_thin_air(execution, hb)
        if violation is not None:
            violations.append(violation)
            if stop_at_first:
                return CheckResult(False, tuple(violations))

        prop = arch.prop(execution, ppo, fences, hb)

        violation = axioms.check_observation(execution, prop, hb)
        if violation is not None:
            violations.append(violation)
            if stop_at_first:
                return CheckResult(False, tuple(violations))

        violation = axioms.check_propagation(execution, prop, arch.propagation_variant)
        if violation is not None:
            violations.append(violation)

        return CheckResult(not violations, tuple(violations))

    def allows(self, execution: Execution) -> bool:
        return self.check(execution, stop_at_first=True).allowed

    def __repr__(self) -> str:
        return f"Model({self.architecture.name})"
