"""Picklable job specs and per-process warm state for campaign workers.

A job spec carries what the caller passed: the litmus test (plain
dataclasses pickle fine) plus the model — a name, an architecture, a
resolved :class:`~repro.core.model.Model` or a cat model — and, for a
hardware campaign, the chips themselves.  Every built-in model and chip
pickles (their relation functions are module-level), so a model object
shards exactly like a model name.  The worker resolves models through
:func:`~repro.herd.simulator.resolve_model`, the one resolution path.
A model that does not pickle (an architecture built from lambdas)
cannot reach a worker: the runner runs its batch in-process instead and
warns once with
:class:`~repro.campaign.supervisor.CampaignPicklingWarning`.

A worker's only warm state is :func:`process_context_cache`, one
:class:`ContextCache` per process: every verdict a worker runs against
a test it has seen before skips the front half of the pipeline and
reuses the planned engine's per-location solves.  A chunk that runs in
the caller's process instead (a one-worker or one-chunk batch, a
payload that does not pickle, a serial retry) uses the cache its driver
hands to :func:`caller_context_cache`.

Every batch driver builds its jobs and hands them to one
:func:`~repro.campaign.runner.run_sharded` call, whatever its worker
count; the runner decides where each chunk runs.  Every batch of
verdicts — a diy family sweep, a model comparison, a verdict-service
batch — is one kind of job: a :class:`VerdictJob` carrying the test and
the models to judge it under, run by :func:`verdict_chunk` and built
by :func:`repro.compare.engine.paired_verdicts`, the one verdict
driver.

The chunk workers are module-level functions (multiprocessing pickles
them by reference) with lazy driver imports, keeping ``repro.campaign``
import-light and free of circular imports — driver modules import the
runtime, never the reverse at import time.

Every worker consults :func:`repro.campaign.faults.trip` once per job —
a module-global ``None`` check in production, and the seam the
fault-tolerance test-suite uses to stage worker crashes, hangs and
unpicklable exceptions at an exactly chosen item.  Exceptions escaping
a chunk are captured at the chunk boundary by
:func:`repro.campaign.supervisor.guarded_call` into picklable error
envelopes, so nothing a job raises can wedge the pool machinery.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.campaign import faults as _faults
from repro.campaign.context import ContextCache
from repro.herd.simulator import ModelLike, Simulator, resolve_model
from repro.litmus.ast import LitmusTest

# -- per-process warm state -----------------------------------------------------

_CONTEXT_CACHE: Optional[ContextCache] = None
_CALLER_CACHE: ContextVar[Optional[ContextCache]] = ContextVar(
    "caller_context_cache", default=None
)


def process_context_cache() -> ContextCache:
    """The per-test simulation-context cache of a chunk: its caller's
    inside :func:`caller_context_cache`, else this process's own."""
    global _CONTEXT_CACHE
    cache = _CALLER_CACHE.get()
    if cache is not None:
        return cache
    if _CONTEXT_CACHE is None:
        _CONTEXT_CACHE = ContextCache()
    return _CONTEXT_CACHE


@contextmanager
def caller_context_cache(cache: Optional[ContextCache]) -> Iterator[None]:
    """Chunks that this thread runs in-process within the block use
    *cache*, so their contexts stay under the caller's bounds and stats.
    For ``None`` they share a fresh one-entry cache: a job's context
    lives while the job runs, the thread paths for the whole batch, and
    a caller that keeps no cache keeps no contexts.  Workers serve in an
    empty context, so a forked one never inherits it."""
    token = _CALLER_CACHE.set(ContextCache(capacity=1) if cache is None else cache)
    try:
        yield
    finally:
        _CALLER_CACHE.reset(token)


# -- job specs ------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictJob:
    """Allow/Forbid of one test's target outcome under one or more models.

    The unit of work of every batch of verdicts — a family sweep (one
    model), a model comparison (two) or a ``-violates/-satisfies``
    filter (several).  The front half of the pipeline (paths, event
    interning, plans and their per-location solves) is model
    independent, so one :class:`~repro.campaign.context.SimulationContext`
    serves every model's verdict of the test.  ``models`` are any
    model-like values: the verdict service sends names.
    """

    test: LitmusTest
    models: Tuple[ModelLike, ...]
    engine: str = "optimal"


@dataclass(frozen=True)
class SimulateJob:
    """One full simulation summary.  ``Session.simulate`` runs
    ``keep_candidates`` batches in-process, so candidate objects never
    cross a process boundary."""

    test: LitmusTest
    model: ModelLike
    engine: str = "optimal"
    until: Optional[str] = None
    keep_candidates: bool = False
    stop_at_first_violation: bool = True


@dataclass(frozen=True)
class HardwareJob:
    """One test of a hardware-testing campaign: model summary plus chip
    observations (RNG seeds drawn by the parent so sharded campaigns
    observe exactly what serial ones do)."""

    test: LitmusTest
    model: ModelLike
    chips: Tuple[Any, ...]
    iterations: int
    seeds: Tuple[int, ...]


@dataclass(frozen=True)
class MoleJob:
    """The mole census of one package (a list of IR programs)."""

    package: str
    programs: Tuple[Any, ...]
    max_cycle_length: int = 6


# -- chunk workers --------------------------------------------------------------


def _simulator(built: Dict, model: ModelLike, engine: str = "optimal") -> Simulator:
    """The chunk's one :class:`Simulator` for *model* and *engine*: the
    jobs of a batch share their model objects, and pickling keeps that
    sharing within a chunk, so a model name resolves once per chunk."""
    key = (id(model), engine)
    simulator = built.get(key)
    if simulator is None:
        simulator = built[key] = Simulator(model, engine)
    return simulator


def verdict_chunk(
    chunk: List[VerdictJob], payload: Any = None
) -> List[Tuple[str, Tuple[str, ...]]]:
    """Worker: ``(test name, verdict per model)`` for each job.

    One context lookup per job, shared by every model's verdict.
    """
    results = []
    cache = process_context_cache()
    built: Dict = {}
    for job in chunk:
        _faults.trip(job.test.name)
        context = cache.get(job.test)
        verdicts = tuple(
            _simulator(built, model, job.engine).verdict(job.test, context=context)
            for model in job.models
        )
        results.append((job.test.name, verdicts))
    return results


def simulate_chunk(chunk: List[SimulateJob], payload: Any = None):
    """Worker: one full :class:`SimulationResult` per job of the chunk."""
    results = []
    cache = process_context_cache()
    built: Dict = {}
    for job in chunk:
        _faults.trip(job.test.name)
        results.append(
            _simulator(built, job.model, job.engine).run(
                job.test,
                keep_candidates=job.keep_candidates,
                stop_at_first_violation=job.stop_at_first_violation,
                until=job.until,
                context=None if job.keep_candidates else cache.get(job.test),
            )
        )
    return results


def repair_chunk(chunk: List[LitmusTest], payload: Tuple[Any, dict, str]):
    """Worker: repair a chunk of tests with a process-local memo cache.

    ``payload`` is ``(model, cycle-cache snapshot, placement
    strategy)``; the worker repairs against a local copy of the snapshot
    and returns it with the reports so the parent can merge what this
    chunk learned.  ILP chunks behave exactly like greedy ones — the
    strategy only changes which planner each repair runs.
    """
    from repro.fences.campaign import repair_one

    model, cache_snapshot, strategy = payload
    local = dict(cache_snapshot)
    resolved = resolve_model(model)
    cache = process_context_cache()
    reports = []
    for test in chunk:
        _faults.trip(test.name)
        reports.append(
            repair_one(
                test, resolved, local, context_cache=cache, strategy=strategy,
            )
        )
    return reports, local


def hardware_chunk(chunk: List[HardwareJob], payload: Any = None):
    """Worker: observe each test on its chip population."""
    from repro.hardware.testing import observe_test

    results = []
    cache = process_context_cache()
    built: Dict = {}
    for job in chunk:
        _faults.trip(job.test.name)
        results.append(
            observe_test(
                _simulator(built, job.model),
                job.test,
                job.chips,
                job.iterations,
                job.seeds,
                context_cache=cache,
            )
        )
    return results


def mole_chunk(chunk: List[MoleJob], payload: Any = None):
    """Worker: ``(package, static cycles)`` for each package of the chunk."""
    from repro.mole.analysis import find_cycles

    results = []
    for job in chunk:
        _faults.trip(job.package)
        cycles: list = []
        for program in job.programs:
            cycles.extend(find_cycles(program, job.max_cycle_length))
        results.append((job.package, cycles))
    return results


def bmc_chunk(chunk: List[Any], payload: Tuple[ModelLike, str]):
    """Worker: one :class:`VerificationResult` per query (an IR program
    or a litmus test) of the chunk, all decided by one checker built
    from the ``(model, backend)`` payload."""
    from repro.verification.bmc import BoundedModelChecker
    from repro.verification.program import Program

    checker = BoundedModelChecker(*payload)
    results = []
    for item in chunk:
        _faults.trip(item.name)
        if isinstance(item, Program):
            results.append(checker.verify(item))
        else:
            results.append(checker.verify_litmus(item))
    return results
