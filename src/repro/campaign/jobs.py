"""Picklable job specs and per-process warm state for campaign workers.

Worker processes cannot receive live models or simulators: architecture
definitions and simulated chips carry closures, so job specs ship the
litmus test (plain dataclasses pickle fine) plus *names* — a model name,
chip names, a backend — and the worker re-hydrates heavyweight objects
on first use, memoizing them in module-level per-process state:

* :func:`process_simulator` — one resolved :class:`Simulator` per
  (model name, engine) per process;
* :func:`process_context_cache` — one :class:`ContextCache` per process,
  so every verdict a worker runs against a test it has seen before skips
  the front half of the pipeline and reuses the planned engine's
  per-location solves;
* checkers and chips are memoized the same way by the driver-specific
  chunk workers below.

Every batch of verdicts — a diy family sweep, a model comparison, a
verdict-service batch — is one kind of job: a :class:`VerdictJob`
carrying the test and the names of the models to judge it under, run
by :func:`verdict_chunk`.  :func:`repro.compare.engine.paired_verdicts`
is the one driver that shards those jobs or runs them serially; only
the service hands them to the runner itself, so that even a one-test
batch stays supervised.

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

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign import faults as _faults
from repro.campaign.context import ContextCache
from repro.herd.simulator import Simulator
from repro.litmus.ast import LitmusTest

# -- per-process warm state -----------------------------------------------------

_SIMULATORS: Dict[Tuple[str, str], Simulator] = {}
_CHECKERS: Dict[Tuple[str, str], Any] = {}
_CHIPS: Dict[str, Any] = {}
_CONTEXT_CACHE: Optional[ContextCache] = None


def process_simulator(model_name: str, engine: str = "optimal") -> Simulator:
    """This process's simulator for a model name (resolved once)."""
    key = (model_name, engine)
    simulator = _SIMULATORS.get(key)
    if simulator is None:
        simulator = Simulator(model_name, engine=engine)
        _SIMULATORS[key] = simulator
    return simulator


def process_context_cache() -> ContextCache:
    """This process's per-test simulation-context cache."""
    global _CONTEXT_CACHE
    if _CONTEXT_CACHE is None:
        _CONTEXT_CACHE = ContextCache()
    return _CONTEXT_CACHE


def _process_chip(name: str):
    chip = _CHIPS.get(name)
    if chip is None:
        from repro.hardware.chips import chip_by_name

        chip = chip_by_name(name)
        _CHIPS[name] = chip
    return chip


def _process_checker(model_name: str, backend: str):
    key = (model_name, backend)
    checker = _CHECKERS.get(key)
    if checker is None:
        from repro.verification.bmc import BoundedModelChecker

        checker = BoundedModelChecker(model_name, backend)
        _CHECKERS[key] = checker
    return checker


# -- job specs ------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictJob:
    """Allow/Forbid of one test's target outcome under one or more models.

    The unit of work of every batch of verdicts — a family sweep (one
    model), a model comparison (two) or a ``-violates/-satisfies``
    filter (several).  The front half of the pipeline (paths, event
    interning, plans and their per-location solves) is model
    independent, so one :class:`~repro.campaign.context.SimulationContext`
    serves every model's verdict of the test.  ``models`` are names
    (workers re-hydrate them).
    """

    test: LitmusTest
    models: Tuple[str, ...]
    engine: str = "optimal"


@dataclass(frozen=True)
class SimulateJob:
    """One full simulation summary (no candidate objects — those do not
    cross process boundaries; ``Session.simulate`` keeps
    ``keep_candidates`` queries serial)."""

    test: LitmusTest
    model_name: str
    engine: str = "optimal"
    until: Optional[str] = None


@dataclass(frozen=True)
class HardwareJob:
    """One test of a hardware-testing campaign: model summary plus chip
    observations (chips re-hydrated by name, RNG seeds drawn by the
    parent so sharded campaigns observe exactly what serial ones do)."""

    test: LitmusTest
    model_name: str
    chip_names: Tuple[str, ...]
    iterations: int
    seeds: Tuple[int, ...]


@dataclass(frozen=True)
class MoleJob:
    """The mole census of one package (a list of IR programs)."""

    package: str
    programs: Tuple[Any, ...]
    max_cycle_length: int = 6


@dataclass(frozen=True)
class BmcJob:
    """One bounded-model-checking query (an IR program or a litmus test)."""

    item: Any
    model_name: str
    backend: str = "axiomatic"


# -- chunk workers --------------------------------------------------------------


def verdict_chunk(
    chunk: List[VerdictJob], payload: Any = None
) -> List[Tuple[str, Tuple[str, ...]]]:
    """Worker: ``(test name, verdict per model)`` for each job.

    One context lookup per job, shared by every model's verdict.
    """
    results = []
    cache = process_context_cache()
    for job in chunk:
        _faults.trip(job.test.name)
        context = cache.get(job.test)
        verdicts = tuple(
            process_simulator(name, job.engine).verdict(job.test, context=context)
            for name in job.models
        )
        results.append((job.test.name, verdicts))
    return results


def simulate_chunk(chunk: List[SimulateJob], payload: Any = None):
    """Worker: one full :class:`SimulationResult` per job of the chunk."""
    results = []
    cache = process_context_cache()
    for job in chunk:
        _faults.trip(job.test.name)
        simulator = process_simulator(job.model_name, job.engine)
        results.append(
            simulator.run(job.test, until=job.until, context=cache.get(job.test))
        )
    return results


def repair_chunk(chunk: List[LitmusTest], payload: Tuple[str, dict, str]):
    """Worker: repair a chunk of tests with a process-local memo cache.

    ``payload`` is ``(model name, cycle-cache snapshot, placement
    strategy)``; the worker repairs against a local copy of the snapshot
    and returns it with the reports so the parent can merge what this
    chunk learned.  ILP chunks behave exactly like greedy ones — the
    strategy only changes which planner each repair runs.
    """
    from repro.fences.campaign import repair_one

    model_name, cache_snapshot, strategy = payload
    local = dict(cache_snapshot)
    simulator_model = process_simulator(model_name).model
    cache = process_context_cache()
    reports = []
    for test in chunk:
        _faults.trip(test.name)
        reports.append(
            repair_one(
                test, simulator_model, local, context_cache=cache,
                strategy=strategy,
            )
        )
    return reports, local


def hardware_chunk(chunk: List[HardwareJob], payload: Any = None):
    """Worker: observe each test on its chip population."""
    from repro.hardware.testing import observe_test

    results = []
    cache = process_context_cache()
    for job in chunk:
        _faults.trip(job.test.name)
        simulator = process_simulator(job.model_name)
        chips = [_process_chip(name) for name in job.chip_names]
        results.append(
            observe_test(
                simulator,
                job.test,
                chips,
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


def bmc_chunk(chunk: List[BmcJob], payload: Any = None):
    """Worker: one :class:`VerificationResult` per query of the chunk."""
    from repro.verification.program import Program

    results = []
    for job in chunk:
        _faults.trip(getattr(job.item, "name", repr(job.item)))
        checker = _process_checker(job.model_name, job.backend)
        if isinstance(job.item, Program):
            results.append(checker.verify(job.item))
        else:
            results.append(checker.verify_litmus(job.item))
    return results
