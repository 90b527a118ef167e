"""The herd simulator: litmus test + model -> allowed outcomes and verdict.

``simulate(test, model)`` enumerates the candidate executions of the
test, checks each against the model and summarises:

* the set of allowed outcomes (final states as observed by the litmus
  harness);
* whether the test's target outcome (its ``exists`` clause) is reachable
  — the paper's "allowed"/"forbidden" verdict for a pattern;
* optionally, the full lists of allowed and forbidden candidates, used
  by the anomaly-classification experiments (Tab. VIII) which need to
  know *which axioms* reject each execution.

The ``model`` argument accepts a :class:`~repro.core.model.Model`, a
:class:`~repro.core.model.Architecture`, an architecture name (``"power"``,
``"tso"``...) or a cat-interpreted model object exposing ``check``.

Two enumeration engines sit underneath (selected by ``engine=``):

* ``"optimal"`` (the default) — the planned engine of
  :mod:`repro.herd.optimal`: it constructs each SC-PER-LOCATION-consistent
  execution exactly once instead of enumerating the rf×co grid, and
  counts the rest of the grid combinatorially, so the summary is
  *identical* to the naive engine's;
* ``"naive"`` — the brute-force reference oracle of
  :mod:`repro.herd.enumerate`, kept for differential testing and for
  queries the planned engine does not serve (``keep_candidates``,
  duck-typed and cat models whose axiom set is unknown).

``run(..., until="target")`` is the verdict-only fast path: enumeration
stops the moment the target outcome is proven reachable, and model
checks are skipped for candidates whose outcome cannot match the
target.  Counts and outcome sets in the result are then partial; only
``target_reachable`` / ``verdict`` are authoritative.  The fence-repair
escalation loop and the campaign drivers use it via :meth:`Simulator.verdict`.

``run(..., context=...)`` accepts a prebuilt per-test simulation
context (:class:`repro.campaign.context.SimulationContext`): the
expensive front half of the pipeline — thread-path enumeration, event
interning, the fixed relations and the plans with their solved
per-location walks — is then reused instead of rebuilt.  The context is
model-independent, so one context serves verdict queries under any
number of models, and so is most of a verdict's back half: each plan
keeps the target-matching executions its verdict walks materialized
(:meth:`repro.herd.optimal.OptimalPlan.target_leaves`), and a later
model's verdict only runs its own check over them.  For process-level
fan-out the campaign runtime ships picklable job specs (the litmus test
plus the model, as given) and resolves the model and builds the context
inside the worker; see :mod:`repro.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

from repro import telemetry as _telemetry
from repro.core.architectures import get_architecture
from repro.core.model import Architecture, CheckResult, Model
from repro.herd import optimal as _optimal
from repro.herd.enumerate import Candidate, candidate_executions
from repro.litmus.ast import LitmusTest
from repro.litmus.instructions import MoveImmediate, Store
from repro.report import JsonReportMixin, outcome_key

Outcome = Tuple[Tuple[str, int], ...]
ModelLike = Union[str, Architecture, Model]

ENGINES = ("optimal", "naive")

#: Same-location write bursts of at least this many stores mark the
#: coherence-heavy inputs whose rf×co grid explodes.  Only the
#: benchmark's description of its inputs reads it; no engine choice
#: depends on it.
AUTO_OPTIMAL_WRITE_BURST = 4


def write_burst(test: LitmusTest) -> int:
    """The largest number of stores aimed at any single location,
    summed across threads — the coherence pressure of a test.

    Store targets resolve through the test's address registers — the
    ``init_registers`` bindings (``(thread, reg) -> location``) plus any
    in-thread ``MoveImmediate`` of a location name.  A store whose
    address register resolves to no location (computed addresses) makes
    the scan conservative: 0.
    """
    stores_per_location: dict = {}
    for index, thread in enumerate(test.threads):
        addresses = {
            reg: value
            for (thread_index, reg), value in test.init_registers.items()
            if thread_index == index and isinstance(value, str)
        }
        for instruction in thread:
            if isinstance(instruction, MoveImmediate) and isinstance(
                instruction.value, str
            ):
                addresses[instruction.dst] = instruction.value
            elif isinstance(instruction, Store):
                location = addresses.get(instruction.addr_reg)
                if location is None:
                    return 0
                stores_per_location[location] = (
                    stores_per_location.get(location, 0) + 1
                )
    return max(stores_per_location.values(), default=0)


def resolve_model(model: ModelLike) -> Model:
    """Resolve a model-like value (name, architecture, model) to a model.

    Campaign drivers call this once per campaign and pass the resolved
    object down, instead of re-running ``get_architecture`` inside their
    per-test loops.  Idempotent: resolved models pass through unchanged.
    """
    if isinstance(model, Model):
        return model
    if isinstance(model, Architecture):
        return Model(model)
    if isinstance(model, str):
        return Model(get_architecture(model))
    if hasattr(model, "check"):  # duck-typed (cat-interpreted models)
        return model  # type: ignore[return-value]
    raise TypeError(f"cannot interpret {model!r} as a model")


@dataclass
class SimulationResult(JsonReportMixin):
    """Summary of simulating one litmus test under one model."""

    test: LitmusTest
    model_name: str
    allowed_outcomes: FrozenSet[Outcome]
    all_outcomes: FrozenSet[Outcome]
    target_reachable: bool
    condition_holds: bool
    num_candidates: int
    num_allowed: int
    allowed_candidates: Tuple[Candidate, ...] = ()
    forbidden_candidates: Tuple[Tuple[Candidate, CheckResult], ...] = ()
    #: True when the run stopped early (``until="target"``): counts and
    #: outcome sets cover only the candidates explored before the exit.
    partial: bool = False

    @property
    def verdict(self) -> str:
        """The paper's Allow/Forbid verdict for the test's target outcome."""
        return "Allow" if self.target_reachable else "Forbid"

    def describe(self) -> str:
        lines = [
            f"{self.test.name} under {self.model_name}: {self.verdict}",
            f"  candidates: {self.num_candidates}, allowed: {self.num_allowed}",
        ]
        for outcome in sorted(self.allowed_outcomes):
            rendering = ", ".join(f"{name}={value}" for name, value in outcome)
            lines.append(f"  allowed outcome: {rendering}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-plain summary (candidate executions appear as counts only)."""
        return {
            "type": "simulation",
            "test": self.test.name,
            "model": self.model_name,
            "verdict": self.verdict,
            "condition": str(self.test.condition)
            if self.test.condition is not None
            else None,
            "condition_holds": self.condition_holds,
            "target_reachable": self.target_reachable,
            "num_candidates": self.num_candidates,
            "num_allowed": self.num_allowed,
            "partial": self.partial,
            "allowed_outcomes": sorted(
                outcome_key(outcome) for outcome in self.allowed_outcomes
            ),
            "all_outcomes": sorted(
                outcome_key(outcome) for outcome in self.all_outcomes
            ),
        }


class Simulator:
    """A reusable simulator bound to one model.

    ``engine`` selects the enumeration strategy: ``"optimal"`` (the
    planned engine, constructing each consistent execution exactly
    once) or ``"naive"`` (the reference cross product).  ``"optimal"``
    falls back to ``"naive"`` for queries only the oracle serves
    (``keep_candidates``, duck-typed and cat models).
    """

    def __init__(self, model: ModelLike, engine: str = "optimal"):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
        self.model = resolve_model(model)
        self.engine = engine

    @property
    def model_name(self) -> str:
        return getattr(self.model, "name", str(self.model))

    def _planned_variant(self) -> Optional[str]:
        """The SC PER LOCATION variant the planned engine enforces, or
        None if the model's axiom set is unknown (duck-typed models)."""
        architecture = getattr(self.model, "architecture", None)
        variant = getattr(architecture, "sc_per_location_variant", None)
        if isinstance(self.model, Model) and variant in _optimal._VARIANTS:
            return variant
        return None

    def run(
        self,
        test: LitmusTest,
        keep_candidates: bool = False,
        stop_at_first_violation: bool = True,
        until: Optional[str] = None,
        context=None,
    ) -> SimulationResult:
        """Simulate *test*; ``context`` optionally supplies the memoized
        front half (a :class:`repro.campaign.context.SimulationContext`
        for this very test).  The context only accelerates the planned
        engine; naive and ``keep_candidates`` queries ignore it."""
        if until not in (None, "target"):
            raise ValueError(f"unknown until mode {until!r}")
        variant = self._planned_variant()
        planned = (
            self.engine == "optimal" and not keep_candidates and variant is not None
        )
        engine_name = "optimal" if planned else "naive"
        registry = _telemetry._ACTIVE
        if registry is None:
            if planned:
                return self._run_planned(test, variant, until, context)
            return self._run_naive(
                test, keep_candidates, stop_at_first_violation, until
            )
        # Telemetry enabled: every run is a trace span (name, model,
        # engine, verdict-vs-full) plus per-engine counters.
        with registry.span(
            "herd.run",
            test=test.name,
            model=self.model_name,
            engine=engine_name,
            mode="verdict" if until == "target" else "full",
        ):
            if planned:
                result = self._run_planned(test, variant, until, context)
            else:
                result = self._run_naive(
                    test, keep_candidates, stop_at_first_violation, until
                )
        registry.count(f"herd.runs.{engine_name}")
        if until == "target":
            registry.count("herd.verdict_queries")
        return result

    def verdict(self, test: LitmusTest, context=None) -> str:
        """Allow/Forbid for the target outcome (early-exit fast path)."""
        return self.run(test, until="target", context=context).verdict

    # -- planned engine -----------------------------------------------------------

    def _run_planned(
        self,
        test: LitmusTest,
        variant: str,
        until: Optional[str],
        context=None,
    ) -> SimulationResult:
        """The planned engine's driver: plans yield only
        uniproc-consistent leaves with full-grid summary counts, so each
        leaf is checked with ``assume_sc_per_location=True``.

        A verdict query walks each plan's shared target leaves
        (:meth:`~repro.herd.optimal.OptimalPlan.target_leaves`) and only
        runs the model's check; a full summary streams every leaf."""
        check = self.model.check
        allowed_outcomes: set = set()
        all_outcomes: set = set()
        num_candidates = 0
        num_allowed = 0
        target_found = False
        verdict_only = until == "target" and test.condition is not None

        if context is None:
            from repro.campaign.context import SimulationContext

            context = SimulationContext(test)
        plan_source = (
            context.target_plans(variant) if verdict_only else context.plans(variant)
        )
        plans_walked = 0
        plans_skipped = 0
        for plan in plan_source:
            num_candidates += plan.total
            if not verdict_only:
                all_outcomes |= plan.all_outcomes()
                plans_walked += 1
                for leaf in plan.leaves():
                    result = check(
                        leaf.execution(), stop_at_first=True, assume_sc_per_location=True
                    )
                    if result.allowed:
                        num_allowed += 1
                        allowed_outcomes.add(leaf.outcome)
                continue
            # A combination whose entire outcome universe misses the
            # target cannot witness reachability: skip its walk.  For
            # register-only conditions (the common case) the universe is
            # a single outcome fixed by the thread paths.
            if not plan.meets_target():
                plans_skipped += 1
                continue
            plans_walked += 1
            for outcome, execution in plan.target_leaves():
                if check(execution, stop_at_first=True, assume_sc_per_location=True).allowed:
                    num_allowed += 1
                    allowed_outcomes.add(outcome)
                    target_found = True
                    break
            if target_found:
                break

        registry = _telemetry._ACTIVE
        if registry is not None:
            registry.count("herd.plans_walked", plans_walked)
            registry.count("herd.plans_skipped_by_target", plans_skipped)
            if target_found:
                registry.count("herd.verdict_early_exits")
        return self._summarise(
            test,
            allowed_outcomes,
            all_outcomes,
            num_candidates,
            num_allowed,
            partial=target_found,
        )

    # -- naive engine -------------------------------------------------------------

    def _run_naive(
        self,
        test: LitmusTest,
        keep_candidates: bool,
        stop_at_first_violation: bool,
        until: Optional[str],
    ) -> SimulationResult:
        allowed_outcomes: set = set()
        all_outcomes: set = set()
        allowed: List[Candidate] = []
        forbidden: List[Tuple[Candidate, CheckResult]] = []
        num_candidates = 0
        num_allowed = 0
        target_found = False
        verdict_only = until == "target" and test.condition is not None

        for candidate in candidate_executions(test):
            num_candidates += 1
            outcome = candidate.outcome(test)
            all_outcomes.add(outcome)
            matches = (
                _optimal.outcome_satisfies(test.condition, outcome)
                if test.condition is not None
                else False
            )
            if verdict_only and not matches:
                continue
            result = self.model.check(
                candidate.execution, stop_at_first=stop_at_first_violation
            )
            if result.allowed:
                num_allowed += 1
                allowed_outcomes.add(outcome)
                if keep_candidates:
                    allowed.append(candidate)
                if matches:
                    target_found = True
                    if verdict_only:
                        break
            elif keep_candidates:
                forbidden.append((candidate, result))

        return self._summarise(
            test,
            allowed_outcomes,
            all_outcomes,
            num_candidates,
            num_allowed,
            allowed=tuple(allowed),
            forbidden=tuple(forbidden),
            partial=verdict_only and target_found,
        )

    # -- shared summary -----------------------------------------------------------

    def _summarise(
        self,
        test: LitmusTest,
        allowed_outcomes: set,
        all_outcomes: set,
        num_candidates: int,
        num_allowed: int,
        allowed: Tuple[Candidate, ...] = (),
        forbidden: Tuple[Tuple[Candidate, CheckResult], ...] = (),
        partial: bool = False,
    ) -> SimulationResult:
        target_reachable = False
        condition_holds = True
        if test.condition is not None:
            matches = [
                _optimal.outcome_satisfies(test.condition, outcome)
                for outcome in allowed_outcomes
            ]
            target_reachable = any(matches)
            condition_holds = test.condition.verdict(
                target_reachable, bool(matches) and all(matches)
            )

        return SimulationResult(
            test=test,
            model_name=self.model_name,
            allowed_outcomes=frozenset(allowed_outcomes),
            all_outcomes=frozenset(all_outcomes),
            target_reachable=target_reachable,
            condition_holds=condition_holds,
            num_candidates=num_candidates,
            num_allowed=num_allowed,
            allowed_candidates=allowed,
            forbidden_candidates=forbidden,
            partial=partial,
        )


def simulate(
    test: LitmusTest,
    model: ModelLike,
    keep_candidates: bool = False,
    stop_at_first_violation: bool = True,
    until: Optional[str] = None,
    engine: str = "optimal",
) -> SimulationResult:
    """Simulate *test* under *model* (convenience wrapper around Simulator)."""
    return Simulator(model, engine=engine).run(
        test,
        keep_candidates=keep_candidates,
        stop_at_first_violation=stop_at_first_violation,
        until=until,
    )
