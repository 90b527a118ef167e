"""The bounded model checker (the paper's CBMC experiments, Sec. 8.4).

Given a bounded concurrent program and a memory model, the checker
decides whether an assertion violation is *reachable*: it enumerates the
program's candidate executions (per-thread bounded paths × read-from
maps × coherence orders), keeps the ones the model allows, and reports
the first allowed execution in which some assertion evaluates to false.

Three backends decide whether a candidate is allowed — the three tools
compared in Tab. X/XI:

* ``"axiomatic"`` — this paper's single-event axiomatic model (the CBMC
  encoding of the present model);
* ``"multi-event"`` — the multi-event axiomatic model of Mador-Haim et
  al. (CAV 2012);
* ``"operational"`` — explicit-state exploration of the intermediate
  machine, standing in for the goto-instrument operational
  instrumentation.

``verify_litmus`` wraps a litmus test as a reachability query (is the
final condition's outcome reachable?), which is how the paper produced
the per-litmus-test timings of Tab. X/XI.

The axiomatic encodings (``"axiomatic"``, ``"multi-event"``) enumerate
through the planned engine (:mod:`repro.herd.optimal`) — except for a
model without a known SC PER LOCATION variant (a cat model), whose
every naive candidate is decided by its full check: only
SC-PER-LOCATION-consistent assignments are ever constructed, candidates
whose outcome cannot witness the query are never decided, and the search
stops at the first counterexample — the solver-side pruning that makes
the axiomatic encoding fast in the paper's Tab. X.  The
``"operational"`` instrumentation backend deliberately keeps the full
exploration (every candidate of the naive cross product is decided by
the machine search): the tool it stands in for has no axiomatic query
planning.  ``candidates_explored`` and ``allowed_executions`` count the
work each backend actually performed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import telemetry as _telemetry
from repro.core.model import Architecture, Model
from repro.herd.enumerate import (
    Candidate,
    candidate_executions,
    candidates_of_combination,
    combination_context,
)
from repro.herd.optimal import _VARIANTS, OptimalPlan, plans
from repro.herd.simulator import ModelLike, resolve_model
from repro.litmus.ast import LitmusTest
from repro.multi_event import MultiEventModel
from repro.operational import IntermediateMachine
from repro.report import JsonReportMixin
from repro.verification.program import Program
from repro.verification.semantics import ProgramPath, enumerate_program_paths

BACKENDS = ("axiomatic", "multi-event", "operational")


@dataclass
class VerificationResult(JsonReportMixin):
    """Outcome of one verification run."""

    name: str
    model_name: str
    backend: str
    safe: bool
    counterexample: Optional[Candidate]
    violated_assertion: Optional[str]
    candidates_explored: int
    allowed_executions: int
    elapsed_seconds: float

    def describe(self) -> str:
        status = "SAFE" if self.safe else f"UNSAFE ({self.violated_assertion})"
        return (
            f"{self.name} under {self.model_name} [{self.backend}]: {status} "
            f"({self.candidates_explored} candidates, {self.allowed_executions} allowed, "
            f"{self.elapsed_seconds:.3f}s)"
        )

    def to_dict(self) -> dict:
        """JSON-plain summary (the counterexample appears as a flag —
        candidate executions do not serialize)."""
        return {
            "type": "verification",
            "name": self.name,
            "model": self.model_name,
            "backend": self.backend,
            "safe": self.safe,
            "has_counterexample": self.counterexample is not None,
            "violated_assertion": self.violated_assertion,
            "candidates_explored": self.candidates_explored,
            "allowed_executions": self.allowed_executions,
            "elapsed_seconds": self.elapsed_seconds,
        }


class BoundedModelChecker:
    """A reusable checker bound to one memory model and one backend.

    The model is anything :func:`~repro.herd.simulator.resolve_model`
    takes.  The axiomatic backend prunes through the planned engine when
    the model has a known SC PER LOCATION variant; any other model (a
    cat model) decides every candidate of the naive enumeration with its
    full check.  The multi-event and operational backends rebuild the
    model from its :class:`~repro.core.model.Architecture`.
    """

    def __init__(
        self,
        model: ModelLike,
        backend: str = "axiomatic",
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
        self.backend = backend
        self.model = resolve_model(model)
        architecture = getattr(self.model, "architecture", None)
        variant = getattr(architecture, "sc_per_location_variant", None)
        if backend == "axiomatic":
            planned = isinstance(self.model, Model) and variant in _VARIANTS
            #: The SC PER LOCATION variant the planned engine prunes with,
            #: or None when every candidate of the naive enumeration is
            #: decided.  Planned candidates are uniproc-consistent by
            #: construction, so their check skips that axiom.
            self._prune_variant: Optional[str] = variant if planned else None
            options = {"assume_sc_per_location": True} if planned else {}
            self._allows = lambda execution: self.model.check(
                execution, stop_at_first=True, **options
            ).allowed
            return
        if not isinstance(architecture, Architecture):
            raise ValueError(
                f"the {backend} backend needs a model with an Architecture; "
                f"{self.model!r} has none"
            )
        if backend == "multi-event":
            decider = MultiEventModel(architecture)
            # The lifted SC PER LOCATION check is the standard variant,
            # so prune with it and skip the (then provably passing) check.
            self._prune_variant = "standard"
            self._allows = lambda execution: decider.check(
                execution, stop_at_first=True, assume_sc_per_location=True
            ).allowed
        else:
            # Full instrumentation-style exploration: the tool this
            # backend stands in for has no axiomatic query planning.
            self._prune_variant = None
            self._allows = IntermediateMachine(architecture).accepts

    @property
    def model_name(self) -> str:
        return self.model.name

    # -- programs -------------------------------------------------------------------

    def verify(self, program: Program) -> VerificationResult:
        """Check every assertion of the program under the memory model."""
        start = time.perf_counter()
        per_thread_paths: List[List[ProgramPath]] = [
            enumerate_program_paths(program, thread)
            for thread in range(program.num_threads())
        ]
        candidates_explored = 0
        allowed = 0
        counterexample: Optional[Candidate] = None
        violated: Optional[str] = None

        for combination in itertools.product(*per_thread_paths):
            failing = [
                outcome.message
                for path in combination
                for outcome in path.assertions
                if not outcome.holds
            ]
            if self._prune_variant is None:
                # Decide every candidate of the naive enumeration.
                for candidate in candidates_of_combination(
                    [path.execution for path in combination],
                    program.shared_variables(),
                    program.shared,
                ):
                    candidates_explored += 1
                    if not self._allows(candidate.execution):
                        continue
                    allowed += 1
                    if failing and counterexample is None:
                        counterexample = candidate
                        violated = failing[0]
                continue
            context = combination_context(
                [path.execution for path in combination],
                program.shared_variables(),
                program.shared,
            )
            plan = OptimalPlan(context, variant=self._prune_variant)
            for leaf in plan.leaves(with_outcomes=False):
                candidates_explored += 1
                candidate = leaf.candidate()
                if not self._allows(candidate.execution):
                    continue
                allowed += 1
                if failing and counterexample is None:
                    counterexample = candidate
                    violated = failing[0]
                    break
            if counterexample is not None:
                break  # reachability proven; the query is decided
        elapsed = time.perf_counter() - start
        self._count_query(candidates_explored, allowed)
        return VerificationResult(
            name=program.name,
            model_name=self.model_name,
            backend=self.backend,
            safe=counterexample is None,
            counterexample=counterexample,
            violated_assertion=violated,
            candidates_explored=candidates_explored,
            allowed_executions=allowed,
            elapsed_seconds=elapsed,
        )

    # -- litmus tests ------------------------------------------------------------------

    def verify_litmus(self, test: LitmusTest) -> VerificationResult:
        """Reachability of the litmus test's final condition (Tab. X/XI).

        The test is "safe" when its target outcome is unreachable under
        the model (the model forbids it), "unsafe" when reachable.
        """
        assert test.condition is not None
        start = time.perf_counter()
        candidates_explored = 0
        allowed = 0
        counterexample: Optional[Candidate] = None
        if self._prune_variant is None:
            # Decide every candidate of the naive enumeration.
            for candidate in candidate_executions(test):
                candidates_explored += 1
                if not self._allows(candidate.execution):
                    continue
                allowed += 1
                outcome = dict(candidate.outcome(test))
                matches = all(
                    outcome.get(
                        f"{atom.thread}:{atom.name}" if atom.kind == "reg" else atom.name
                    )
                    == atom.value
                    for atom in test.condition.atoms
                )
                if matches and counterexample is None:
                    counterexample = candidate
            return self._litmus_result(
                test, counterexample, candidates_explored, allowed, start
            )
        for plan in plans(test, self._prune_variant):
            for leaf in plan.leaves():
                candidates_explored += 1
                observed = dict(leaf.outcome)
                matches = all(
                    observed.get(
                        f"{atom.thread}:{atom.name}" if atom.kind == "reg" else atom.name
                    )
                    == atom.value
                    for atom in test.condition.atoms
                )
                if not matches:
                    continue  # cannot witness the query; never decided
                candidate = leaf.candidate()
                if not self._allows(candidate.execution):
                    continue
                allowed += 1
                counterexample = candidate
                break
            if counterexample is not None:
                break
        return self._litmus_result(
            test, counterexample, candidates_explored, allowed, start
        )

    @staticmethod
    def _count_query(candidates_explored: int, allowed: int) -> None:
        registry = _telemetry._ACTIVE
        if registry is not None:
            registry.count("bmc.queries")
            registry.count("bmc.candidates_explored", candidates_explored)
            registry.count("bmc.allowed_executions", allowed)

    def _litmus_result(
        self,
        test: LitmusTest,
        counterexample: Optional[Candidate],
        candidates_explored: int,
        allowed: int,
        start: float,
    ) -> VerificationResult:
        elapsed = time.perf_counter() - start
        self._count_query(candidates_explored, allowed)
        return VerificationResult(
            name=test.name,
            model_name=self.model_name,
            backend=self.backend,
            safe=counterexample is None,
            counterexample=counterexample,
            violated_assertion=str(test.condition) if counterexample is not None else None,
            candidates_explored=candidates_explored,
            allowed_executions=allowed,
            elapsed_seconds=elapsed,
        )


def verify_program(
    program: Program,
    model: ModelLike = "power",
    backend: str = "axiomatic",
) -> VerificationResult:
    """Convenience wrapper: verify a program under a model with a backend."""
    return BoundedModelChecker(model, backend).verify(program)


def verify_litmus(
    test: LitmusTest,
    model: ModelLike = "power",
    backend: str = "axiomatic",
) -> VerificationResult:
    """Convenience wrapper: check reachability of a litmus test's final state."""
    return BoundedModelChecker(model, backend).verify_litmus(test)


def verify_batch(
    items: Sequence[Union[Program, LitmusTest]],
    model: ModelLike = "power",
    backend: str = "axiomatic",
    processes=None,
    chunk_size: int = 4,
    pool=None,
    policy=None,
    errors: Optional[List] = None,
) -> List[VerificationResult]:
    """Verify a batch of programs and/or litmus tests, optionally sharded.

    The batch path of the Tab. X/XI experiments: one batch of the
    campaign runtime, in which each chunk's queries are decided by one
    checker; ``processes`` (an int, or ``"auto"`` for one worker per
    core) or a ``pool`` spreads the chunks over worker processes.  The
    model and backend are checked here first, so a bad one raises in
    the caller whatever the worker count.  Results come back in batch
    order; ``elapsed_seconds`` is measured wherever the query actually
    ran.

    ``policy`` (a :class:`~repro.campaign.SupervisorPolicy`, or the
    pool's own default) makes the batch fault-tolerant: quarantined
    queries are dropped from the results and appended to ``errors``
    (when the caller passes a list) as
    :class:`~repro.campaign.FailedItem` records.
    """
    from repro.campaign.jobs import bmc_chunk
    from repro.campaign.runner import run_sharded

    BoundedModelChecker(model, backend)  # a bad model or backend raises here
    return run_sharded(
        bmc_chunk,
        items,
        payload=(model, backend),
        processes=processes,
        chunk_size=chunk_size,
        pool=pool,
        policy=policy,
        errors=errors,
    )
