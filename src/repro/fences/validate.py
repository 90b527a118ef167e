"""End-to-end validation of a fence repair, and the synthesis driver.

The static placement of :mod:`repro.fences.placement` is a candidate,
not a proof: dependencies are not cumulative (``wrc+addrs`` stays
allowed on Power) and lightweight fences do not restore SC for every
shape (``iriw+lwsyncs`` stays allowed).  :func:`repair_test` therefore
closes the loop with the paper's own simulator: apply the placements,
re-run :func:`repro.herd.simulate` under the target model, and escalate
the cheapest placement up its mechanism chain until the previously
allowed outcome becomes unobservable (or every chain is exhausted).

The reports carry everything the campaign driver and the test-suite
need: verdicts before and after, the mechanisms chosen, their summed
cost and how many validation runs the search took.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.fences.aeg import AbstractEventGraph, aeg_from_litmus
from repro.fences.cycles import critical_cycles
from repro.fences.placement import Placement, plan_placements, total_cost
from repro.fences.repair import RepairError, apply_placements
from repro.herd.simulator import ModelLike, Simulator
from repro.litmus.ast import LitmusTest
from repro.report import JsonReportMixin


@dataclass
class RepairReport(JsonReportMixin):
    """Outcome of synthesizing fences for one litmus test."""

    test_name: str
    model_name: str
    before_verdict: str
    after_verdict: str
    success: bool
    repaired: Optional[LitmusTest]
    strategy: str = "greedy"
    placements: Tuple[Placement, ...] = ()
    cost: float = 0.0
    validations: int = 0
    num_cycles: int = 0
    from_cache: bool = False
    #: pair-descriptor -> mechanism pairs, for the campaign memo cache.
    mechanism_seed: Tuple[Tuple[Tuple, str], ...] = ()

    @property
    def mechanisms(self) -> Tuple[str, ...]:
        """The inserted mechanisms, in placement order (existing ones excluded)."""
        return tuple(
            placement.mechanism.name
            for placement in self.placements
            if placement.mechanism.kind != "existing"
        )

    @property
    def needed_repair(self) -> bool:
        return self.before_verdict == "Allow"

    def describe(self) -> str:
        if not self.needed_repair:
            return (
                f"{self.test_name} under {self.model_name}: already Forbid, "
                f"nothing to do"
            )
        status = "repaired" if self.success else "NOT repaired"
        mechanisms = ", ".join(self.mechanisms) or "nothing"
        return (
            f"{self.test_name} under {self.model_name}: {status} with "
            f"{mechanisms} (cost {self.cost:g}, {self.validations} validation"
            f"{'s' if self.validations != 1 else ''})"
        )

    @property
    def verdict(self) -> str:
        """The verdict after repair (``"Forbid"`` on success)."""
        return self.after_verdict

    def to_dict(self) -> dict:
        return {
            "type": "repair",
            "test": self.test_name,
            "model": self.model_name,
            "verdict": self.after_verdict,
            "before_verdict": self.before_verdict,
            "after_verdict": self.after_verdict,
            "success": self.success,
            "needed_repair": self.needed_repair,
            "strategy": self.strategy,
            "mechanisms": list(self.mechanisms),
            "cost": self.cost,
            "validations": self.validations,
            "num_cycles": self.num_cycles,
            "from_cache": self.from_cache,
            "repaired": self.repaired.pretty() if self.repaired is not None else None,
        }


def validate_repair(
    original: LitmusTest,
    repaired: LitmusTest,
    model: ModelLike,
    context_cache=None,
) -> Tuple[str, str]:
    """Verdicts (before, after) of the target outcome under the model.

    Uses the simulator's verdict fast path (planned engine, early
    exit on the target outcome): the escalation loop only ever needs
    Allow/Forbid, never the full outcome summary.  ``context_cache``
    optionally supplies a :class:`repro.campaign.ContextCache`, so
    re-validations of tests already seen skip the front half of the
    pipeline.
    """
    simulator = Simulator(model)
    return (
        _verdict(simulator, original, context_cache),
        _verdict(simulator, repaired, context_cache),
    )


def _verdict(simulator: Simulator, test: LitmusTest, context_cache) -> str:
    if context_cache is None:
        return simulator.verdict(test)
    return simulator.verdict(test, context=context_cache.get(test))


def _escalation_candidates(placements: Sequence[Placement]) -> List[Placement]:
    return [placement for placement in placements if placement.can_escalate()]


def repair_test(
    test: LitmusTest,
    model: ModelLike,
    max_validations: int = 64,
    initial_mechanisms=None,
    analysis=None,
    context_cache=None,
    strategy: str = "greedy",
) -> RepairReport:
    """Synthesize the cheapest validated fence placement for one test.

    ``initial_mechanisms`` optionally seeds the search with mechanisms a
    previous repair of the same cycle shape settled on (see
    :mod:`repro.fences.campaign`): each entry maps a pair descriptor
    ``(src_dir, dst_dir, protection_signature)`` to a mechanism name, and
    matching placements fast-forward their chain to it before the first
    validation.  ``analysis`` optionally supplies an
    ``(aeg, critical_cycles)`` pair so batch drivers that already ran
    the static analysis (for the memo key) do not run it twice.  Both
    may be zero-argument callables, invoked only when the test actually
    needs repair — tests that are already Forbid pay nothing.

    ``context_cache`` optionally supplies a
    :class:`repro.campaign.ContextCache`: every validation verdict then
    reuses memoized simulation contexts, which pays off whenever the
    same test (or the same spliced candidate, e.g. on a warm campaign
    re-run) is validated more than once.  Pass ``model`` as an already
    resolved :class:`~repro.core.model.Model` when repairing in a loop —
    the campaign drivers resolve it once and pass it down.

    ``strategy`` selects the placement planner: the default greedy
    weighted set cover, or ``"ilp"`` for the exact integer program of
    :mod:`repro.fences.ilp`.  Escalation, splicing and validation are
    strategy-independent — only the initial cover differs.
    """
    simulator = Simulator(model)
    model_name = simulator.model_name

    before = _verdict(simulator, test, context_cache)
    if before == "Forbid":
        return RepairReport(
            test_name=test.name,
            model_name=model_name,
            before_verdict=before,
            after_verdict=before,
            success=True,
            repaired=None,
            strategy=strategy,
            validations=1,
        )

    if callable(analysis):
        analysis = analysis()
    if analysis is not None:
        aeg, cycles = analysis[0], list(analysis[1])
    else:
        aeg = aeg_from_litmus(test)
        cycles = critical_cycles(aeg)
    if callable(initial_mechanisms):
        initial_mechanisms = initial_mechanisms()
    placements = plan_placements(aeg, cycles, model_name, strategy=strategy)
    seeded = _seed_from_cache(aeg, placements, initial_mechanisms)

    validations = 1  # the "before" run
    repaired: Optional[LitmusTest] = None
    after = before
    success = False
    while validations < max_validations:
        try:
            repaired = apply_placements(test, aeg, placements, strategy=strategy)
        except RepairError:
            # A mechanism cannot be spliced (e.g. a dependency into an
            # access whose index register is taken): escalate past it
            # rather than crash; with nothing left to escalate, fail.
            deps = [
                p
                for p in placements
                if p.mechanism.kind == "dep" and p.can_escalate()
            ]
            if not deps:
                break
            min(deps, key=lambda p: (p.cost, p.thread, p.gap)).escalate()
            continue
        after = _verdict(simulator, repaired, context_cache)
        validations += 1
        if after == "Forbid":
            success = True
            break
        candidates = _escalation_candidates(placements)
        if not candidates:
            break
        # Escalate the placement with the cheapest current mechanism
        # (earliest position on ties): the cheapest choice is the most
        # likely to have been statically over-optimistic.
        weakest = min(candidates, key=lambda p: (p.cost, p.thread, p.gap))
        weakest.escalate()

    return RepairReport(
        test_name=test.name,
        model_name=model_name,
        before_verdict=before,
        after_verdict=after,
        success=success,
        repaired=repaired,
        strategy=strategy,
        placements=tuple(placements),
        cost=total_cost(placements),
        validations=validations,
        num_cycles=len(cycles),
        from_cache=seeded,
        mechanism_seed=tuple(placement_mechanisms(aeg, placements)) if success else (),
    )


def _pair_descriptor(aeg: AbstractEventGraph, placement: Placement) -> Optional[Tuple]:
    if len(placement.pair_keys) != 1:
        return None
    thread, i, j = placement.pair_keys[0]
    edge = aeg.po_edge(aeg.threads[thread][i], aeg.threads[thread][j])
    if edge is None:
        return None
    return (edge.src.direction, edge.dst.direction, edge.protection_signature())


def _seed_from_cache(
    aeg: AbstractEventGraph,
    placements: Sequence[Placement],
    initial_mechanisms: Optional[Sequence[Tuple[Tuple, str]]],
) -> bool:
    if not initial_mechanisms:
        return False
    lookup = dict(initial_mechanisms)
    seeded = False
    for placement in placements:
        descriptor = _pair_descriptor(aeg, placement)
        if descriptor is None or descriptor not in lookup:
            continue
        wanted = lookup[descriptor]
        for level, mechanism in enumerate(placement.chain):
            if mechanism.name == wanted and level >= placement.level:
                placement.level = level
                seeded = True
                break
    return seeded


def placement_mechanisms(
    aeg: AbstractEventGraph, placements: Sequence[Placement]
) -> List[Tuple[Tuple, str]]:
    """Serialize final mechanism choices for the campaign memo cache."""
    result: List[Tuple[Tuple, str]] = []
    for placement in placements:
        descriptor = _pair_descriptor(aeg, placement)
        if descriptor is not None:
            result.append((descriptor, placement.mechanism.name))
    return result
