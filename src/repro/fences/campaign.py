"""Batch fence repair over whole litmus families.

The diy families (Tab. V) contain hundreds of tests per architecture but
only a handful of distinct cycle *shapes*: once ``sb``-shaped tests have
taught the search that write-read pairs need a full fence, every other
test with the same critical-cycle signature can skip straight to the
answer.  The campaign driver therefore memoizes, per (model, cycle
signature), the mechanisms the escalation loop settled on, and seeds
subsequent repairs with them — each seeded repair still runs one
confirming validation, so a stale cache entry costs a little time, never
correctness.

Repairs of distinct tests are independent, so the driver hands the
family to the shared campaign runtime (:mod:`repro.campaign`) as one
batch: every chunk repairs against the memo as it stood when the batch
began, returns its local cache entries, and the parent merges them in
submission order — the same whether the chunks ran in worker processes
or in this one.  Workers resolve the model once per chunk and keep a
per-test simulation-context cache across every chunk they serve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import runner as campaign_runner
from repro.fences.aeg import aeg_from_litmus
from repro.fences.cycles import critical_cycles
from repro.fences.validate import RepairReport, repair_test
from repro.herd.simulator import ModelLike, resolve_model
from repro.litmus.ast import LitmusTest
from repro.report import JsonReportMixin

#: (model name, strategy, cycle-signature-set) -> mechanism seed.  The
#: strategy is part of the key: greedy and ILP covers of the same cycle
#: shape may legitimately settle on different mechanisms, and a seed
#: must never leak across strategies.
CycleCache = Dict[Tuple[str, str, Tuple], Tuple[Tuple[Tuple, str], ...]]


@dataclass
class CampaignResult(JsonReportMixin):
    """Summary of repairing one family of tests.

    ``errors`` holds the quarantined jobs of a supervised campaign
    (:class:`~repro.campaign.supervisor.FailedItem` records): tests the
    fault-tolerant runtime gave up on after retries and bisection.
    ``reports`` then covers exactly the surviving tests, in family
    order.
    """

    model_name: str
    reports: List[RepairReport]
    cache_hits: int = 0
    errors: Tuple = ()

    @property
    def num_tests(self) -> int:
        return len(self.reports)

    @property
    def num_needing_repair(self) -> int:
        return sum(1 for report in self.reports if report.needed_repair)

    @property
    def num_repaired(self) -> int:
        return sum(
            1 for report in self.reports if report.needed_repair and report.success
        )

    @property
    def num_failed(self) -> int:
        return sum(1 for report in self.reports if not report.success)

    @property
    def total_cost(self) -> float:
        return sum(report.cost for report in self.reports)

    @property
    def total_validations(self) -> int:
        return sum(report.validations for report in self.reports)

    def describe(self) -> str:
        quarantined = f", {len(self.errors)} quarantined" if self.errors else ""
        return (
            f"{self.num_tests} tests under {self.model_name}: "
            f"{self.num_needing_repair} needed fences, {self.num_repaired} repaired "
            f"(total cost {self.total_cost:g}, {self.total_validations} validations, "
            f"{self.cache_hits} cache hits{quarantined})"
        )

    def to_dict(self) -> dict:
        return {
            "type": "repair-campaign",
            "model": self.model_name,
            "num_tests": self.num_tests,
            "num_needing_repair": self.num_needing_repair,
            "num_repaired": self.num_repaired,
            "num_failed": self.num_failed,
            "total_cost": self.total_cost,
            "total_validations": self.total_validations,
            "cache_hits": self.cache_hits,
            "errors": [error.to_dict() for error in self.errors],
            "reports": [report.to_dict() for report in self.reports],
        }


def cycle_signature(test: LitmusTest) -> Tuple:
    """The memo key of a test: the canonical signatures of its cycles."""
    aeg = aeg_from_litmus(test)
    return tuple(sorted(cycle.signature() for cycle in critical_cycles(aeg)))


def repair_one(
    test: LitmusTest,
    model: ModelLike,
    cache: Optional[CycleCache] = None,
    context_cache=None,
    strategy: str = "greedy",
) -> RepairReport:
    """Repair one test, consulting and updating the memo cache.

    The static analysis (AEG + critical cycles) and the memo lookup are
    lazy: tests the model already forbids never pay for either, and
    tests that need repair run the analysis exactly once (shared between
    the memo key and :func:`repair_test`).  ``context_cache`` is passed
    through to :func:`repair_test` so validation verdicts reuse
    memoized simulation contexts.
    """
    if cache is None:
        return repair_test(
            test, model, context_cache=context_cache, strategy=strategy
        )

    model_name = model if isinstance(model, str) else getattr(model, "name", "")
    state: dict = {}

    def analysis():
        if "aeg" not in state:
            aeg = aeg_from_litmus(test)
            state["aeg"] = aeg
            state["cycles"] = critical_cycles(aeg)
        return state["aeg"], state["cycles"]

    def signature() -> Tuple[str, str, Tuple]:
        _, cycles = analysis()
        return (
            str(model_name),
            strategy,
            tuple(sorted(cycle.signature() for cycle in cycles)),
        )

    report = repair_test(
        test,
        model,
        initial_mechanisms=lambda: cache.get(signature()),
        analysis=analysis,
        context_cache=context_cache,
        strategy=strategy,
    )
    if report.success and report.needed_repair and report.mechanism_seed:
        cache[signature()] = report.mechanism_seed
    return report


def repair_family(
    tests: Sequence[LitmusTest],
    model: ModelLike,
    processes=None,
    cache: Optional[CycleCache] = None,
    chunk_size: int = 8,
    context_cache=None,
    pool=None,
    strategy: str = "greedy",
    policy=None,
    errors: Optional[List] = None,
) -> CampaignResult:
    """Repair every test of a family, optionally in parallel.

    The family is one batch of the shared campaign runner, chunked by
    ``chunk_size``; ``processes`` (an int, or ``"auto"`` for one worker
    per core) or a ``pool`` spreads the chunks over worker processes,
    each resolving the model once per chunk.  Every chunk is seeded
    with the memo ``cache`` as it stood when the batch began and learns
    only from its own repairs; the chunks' cache entries are merged
    back in submission order, so the reports and the memo do not
    depend on where the chunks ran.  ``cache`` may be shared across
    calls to amortise work over several families.

    ``context_cache`` (chunks that run in-process) reuses per-test
    simulation contexts across validation verdicts; worker processes
    always keep their own per-process context caches, which persist
    across chunks — and across whole batches when an open
    :class:`repro.campaign.CampaignPool` is passed as ``pool``.

    ``strategy`` (``"greedy"`` or ``"ilp"``) selects the placement
    planner for every repair of the campaign; ILP repairs shard and
    memoize exactly like greedy ones (the memo key carries the
    strategy, so mixed-strategy campaigns may share one ``cache``).

    ``policy`` (a :class:`~repro.campaign.SupervisorPolicy`, or the
    pool's own default) makes the campaign fault-tolerant: quarantined
    tests are dropped from ``reports`` and recorded as
    :class:`~repro.campaign.FailedItem` entries on ``result.errors``
    (also appended to ``errors`` when the caller passes a list).
    """
    from repro.campaign.jobs import caller_context_cache, repair_chunk

    if cache is None:
        cache = {}
    resolved = resolve_model(model)
    failed: List = [] if errors is None else errors
    first_failure = len(failed)
    with caller_context_cache(context_cache):
        reports: List[RepairReport] = campaign_runner.run_sharded(
            repair_chunk,
            tests,
            payload=(model, dict(cache), strategy),
            processes=processes,
            chunk_size=chunk_size,
            merge=cache.update,
            pool=pool,
            policy=policy,
            errors=failed,
        )

    cache_hits = sum(1 for report in reports if report.from_cache)
    return CampaignResult(
        model_name=getattr(resolved, "name", str(model)),
        reports=reports,
        cache_hits=cache_hits,
        errors=tuple(failed[first_failure:]),
    )
