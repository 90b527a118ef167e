"""The litmus testing campaign harness (Tab. V, VI, VIII).

``run_campaign`` replays the paper's methodology: every test of a family
is run on a population of (simulated) chips and its observed outcomes
are compared with the outcomes a model allows.

* a test is **invalid** when the hardware exhibits its target outcome
  although the model forbids it — either the model is too strong or the
  hardware is buggy (Sec. 8.1);
* a test is **unseen** when the model allows the target outcome but no
  chip ever exhibits it — the model is weaker than current
  implementations, which is expected (e.g. lb on Power).

``classify_anomalies`` reproduces the Tab. VIII breakdown: for every
observed-but-forbidden execution, record which axioms reject it
(S = SC PER LOCATION, T = NO THIN AIR, O = OBSERVATION, P = PROPAGATION).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.axioms import (
    AXIOM_NO_THIN_AIR,
    AXIOM_OBSERVATION,
    AXIOM_PROPAGATION,
    AXIOM_SC_PER_LOCATION,
)
from repro.core.model import Model
from repro.hardware.chips import SimulatedChip
from repro.herd.enumerate import candidate_executions
from repro.herd.optimal import outcome_satisfies
from repro.herd.simulator import Simulator
from repro.litmus.ast import LitmusTest
from repro.report import JsonReportMixin, outcome_key

Outcome = Tuple[Tuple[str, int], ...]

_AXIOM_LETTER = {
    AXIOM_SC_PER_LOCATION: "S",
    AXIOM_NO_THIN_AIR: "T",
    AXIOM_OBSERVATION: "O",
    AXIOM_PROPAGATION: "P",
}


@dataclass
class ObservedTest(JsonReportMixin):
    """One test's campaign record."""

    test: LitmusTest
    model_verdict: str
    model_outcomes: FrozenSet[Outcome]
    observed_outcomes: Dict[str, Dict[Outcome, int]]  # chip -> outcome -> count
    target_observed: bool

    @property
    def invalid(self) -> bool:
        """Observed on hardware although the model forbids it."""
        return self.model_verdict == "Forbid" and self.target_observed

    @property
    def unseen(self) -> bool:
        """Allowed by the model but never observed."""
        return self.model_verdict == "Allow" and not self.target_observed

    def total_target_observations(self) -> int:
        total = 0
        for per_chip in self.observed_outcomes.values():
            for outcome, count in per_chip.items():
                if outcome_satisfies(self.test.condition, outcome):
                    total += count
        return total

    @property
    def verdict(self) -> str:
        """The model's Allow/Forbid verdict for the test's target outcome."""
        return self.model_verdict

    def describe(self) -> str:
        status = "invalid" if self.invalid else ("unseen" if self.unseen else "agrees")
        return (
            f"{self.test.name}: model says {self.model_verdict}, "
            f"target observed {self.total_target_observations()} times ({status})"
        )

    def to_dict(self) -> Dict:
        return {
            "type": "observed-test",
            "test": self.test.name,
            "verdict": self.model_verdict,
            "model_verdict": self.model_verdict,
            "target_observed": self.target_observed,
            "target_observations": self.total_target_observations(),
            "invalid": self.invalid,
            "unseen": self.unseen,
            "model_outcomes": sorted(
                outcome_key(outcome) for outcome in self.model_outcomes
            ),
            "observed_outcomes": {
                chip: {
                    outcome_key(outcome): count
                    for outcome, count in sorted(per_chip.items())
                }
                for chip, per_chip in sorted(self.observed_outcomes.items())
            },
        }


@dataclass
class CampaignReport(JsonReportMixin):
    """Summary of a campaign: the content of one column of Tab. V."""

    model_name: str
    results: List[ObservedTest] = field(default_factory=list)
    #: quarantined tests of a supervised campaign
    #: (:class:`~repro.campaign.FailedItem` records); ``results`` then
    #: covers exactly the survivors, in family order.
    errors: List = field(default_factory=list)

    @property
    def num_tests(self) -> int:
        return len(self.results)

    @property
    def invalid_tests(self) -> List[ObservedTest]:
        return [result for result in self.results if result.invalid]

    @property
    def unseen_tests(self) -> List[ObservedTest]:
        return [result for result in self.results if result.unseen]

    def summary_row(self) -> Dict[str, int]:
        return {
            "# tests": self.num_tests,
            "invalid": len(self.invalid_tests),
            "unseen": len(self.unseen_tests),
        }

    def describe(self) -> str:
        row = self.summary_row()
        quarantined = f", {len(self.errors)} quarantined" if self.errors else ""
        return (
            f"{self.model_name}: {row['# tests']} tests, "
            f"{row['invalid']} invalid, {row['unseen']} unseen{quarantined}"
        )

    def to_dict(self) -> Dict:
        return {
            "type": "hardware-campaign",
            "model": self.model_name,
            "num_tests": self.num_tests,
            "num_invalid": len(self.invalid_tests),
            "num_unseen": len(self.unseen_tests),
            "errors": [error.to_dict() for error in self.errors],
            "results": [result.to_dict() for result in self.results],
        }


def observe_test(
    simulator: Simulator,
    test: LitmusTest,
    chips: Sequence[SimulatedChip],
    iterations: int,
    seeds: Sequence[int],
    context_cache=None,
) -> ObservedTest:
    """One test's campaign record: model summary plus chip observations.

    ``seeds`` holds one RNG seed per chip, drawn by the campaign parent
    so that sharded and serial campaigns observe identical outcomes.
    The model run and every chip's implementation/erratum simulations
    share the test's memoized context when a ``context_cache`` is given
    (the context is model-independent).
    """
    from repro import telemetry as _telemetry

    registry = _telemetry._ACTIVE
    if registry is not None:
        registry.count("hardware.observations")
        registry.count("hardware.chip_runs", len(chips))
    context = context_cache.get(test) if context_cache is not None else None
    model_result = simulator.run(test, context=context)
    observed: Dict[str, Dict[Outcome, int]] = {}
    target_observed = False
    for chip, chip_seed in zip(chips, seeds):
        chip_rng = random.Random(chip_seed)
        counts = chip.observed_outcomes(
            test, iterations=iterations, rng=chip_rng, context=context
        )
        observed[chip.name] = counts
        if any(outcome_satisfies(test.condition, outcome) for outcome in counts):
            target_observed = True
    return ObservedTest(
        test=test,
        model_verdict=model_result.verdict,
        model_outcomes=model_result.allowed_outcomes,
        observed_outcomes=observed,
        target_observed=target_observed,
    )


def run_campaign(
    tests: Iterable[LitmusTest],
    chips: Sequence[SimulatedChip],
    model,
    iterations: int = 1_000_000,
    seed: int = 2014,
    processes=None,
    context_cache=None,
    chunk_size: int = 4,
    pool=None,
    policy=None,
    errors: Optional[List] = None,
) -> CampaignReport:
    """Run a family of tests on a chip population and compare with a model.

    The family is one batch of the campaign runtime, chunked by
    ``chunk_size``; ``processes`` (an int, or ``"auto"`` for one worker
    per core) or a ``pool`` (a session's warm workers, reused instead
    of spinning a fresh pool per call) spreads the chunks over worker
    processes.  Every job carries the model and the chips as given,
    and chip RNG seeds are drawn up front by the parent in family
    order, so a report does not depend on where its chunks ran.

    Every test is simulated several times per campaign — once under the
    reference model, then once per chip implementation model plus its
    errata — so every job shares the test's memoized context: chunks
    that run in-process use ``context_cache`` (a one-entry batch-local
    one when the caller supplies none), workers their per-process
    caches.

    ``policy`` (a :class:`~repro.campaign.SupervisorPolicy`, or the
    pool's own default) makes the campaign fault-tolerant: quarantined
    tests are dropped from ``report.results`` and recorded as
    :class:`~repro.campaign.FailedItem` entries on ``report.errors``
    (also appended to ``errors`` when the caller passes a list).
    """
    from repro.campaign import runner as campaign_runner
    from repro.campaign.jobs import HardwareJob, caller_context_cache, hardware_chunk

    chips = tuple(chips)
    report = CampaignReport(model_name=Simulator(model).model_name)
    rng = random.Random(seed)
    jobs = [
        HardwareJob(
            test, model, chips, iterations, tuple(rng.randint(0, 2**31) for _ in chips)
        )
        for test in tests
    ]
    with caller_context_cache(context_cache):
        report.results.extend(
            campaign_runner.run_sharded(
                hardware_chunk,
                jobs,
                processes=processes,
                chunk_size=chunk_size,
                pool=pool,
                policy=policy,
                errors=report.errors,
            )
        )
    if errors is not None:
        errors.extend(report.errors)
    return report


def classify_anomalies(
    report: CampaignReport, model
) -> Dict[str, int]:
    """Tab. VIII: count observed-but-forbidden executions per violated-axiom set.

    For every invalid test, every candidate execution whose outcome was
    observed on some chip yet is rejected by the model is classified by
    the set of axioms rejecting it (e.g. ``"S"``, ``"OP"``, ``"STO"``).
    """
    model = model if isinstance(model, Model) or hasattr(model, "check") else Model(model)
    classification: Dict[str, int] = {}

    for result in report.results:
        if not result.invalid:
            continue
        observed_outcomes = set()
        for per_chip in result.observed_outcomes.values():
            observed_outcomes.update(per_chip)
        for candidate in candidate_executions(result.test):
            outcome = candidate.outcome(result.test)
            if outcome not in observed_outcomes:
                continue
            check = model.check(candidate.execution, stop_at_first=False)
            if check.allowed:
                continue
            letters = sorted(
                {_AXIOM_LETTER.get(v.axiom, "?") for v in check.violations},
                key="STOP".index,
            )
            key = "".join(letters)
            classification[key] = classification.get(key, 0) + 1
    return classification
