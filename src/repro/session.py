"""One front door: a stateful :class:`Session` façade over every driver.

The toolbox is one conceptual workflow — simulate litmus tests, repair
them with fences, observe them on hardware populations, sweep generated
families, mine programs for cycles, model-check concurrent code — but
each driver historically resolved its own models and threaded its own
``context_cache=`` / ``processes=`` / ``pool=`` / ``strategy=`` kwargs.
A :class:`Session` owns that cross-cutting state once:

* a **resolved-model cache** — model names are resolved to
  :class:`~repro.core.model.Model` objects once per session, never per
  call (``stats()["model_cache"]`` counts the hits);
* a shared :class:`~repro.campaign.ContextCache` — the memoized front
  half of the simulation pipeline is reused by *every* verb, so a test
  repaired, swept and observed in one session interns its events once;
* a fence-repair **cycle-signature memo** shared by every ``repair``
  call, so families repaired across several batches keep their seeds;
* a lazily-started persistent :class:`~repro.campaign.CampaignPool` —
  the first batch verb on a multi-worker session spins the pool up, and
  every later batch reuses the warm workers (and their per-process
  context caches);
* session **defaults** (``model=``, ``engine=``, ``strategy=``,
  ``processes=``, ``cache_size=``) applied by every verb unless
  overridden per call.

Every verb accepts a single item *or* an iterable and auto-dispatches:
single calls run in-process against the session caches; an iterable is
one batch of the campaign runtime, on the session's warm pool when it
has one and in-process otherwise, sharing the same caches either way.
All results conform to the :class:`repro.report.Report` protocol, so
batch outputs serialize uniformly.

Usage::

    from repro import Session

    with Session(model="power", processes="auto") as session:
        session.verdict(test)                  # "Allow" / "Forbid"
        session.repair(tests)                  # CampaignResult (warm pool)
        session.sweep(tests, model="arm")      # FamilySweep (contexts reused)
        session.observe(tests)                 # CampaignReport (chips inferred)
        print(session.stats())                 # cache hit counters

The module-level verbs (:func:`simulate`, :func:`verdict`, ...) are
thin wrappers over one process-wide default session (serial, so it
never spawns workers behind your back); they are what
``from repro import simulate`` gives you.
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import telemetry as _telemetry
from repro.campaign import (
    CampaignPool,
    ContextCache,
    ErrorRing,
    FailedItem,
    SupervisorPolicy,
    run_sharded,
    worker_count,
)
from repro.campaign import supervisor as _supervisor
from repro.util.caches import BoundedTTLCache
from repro.telemetry import CacheStats, Metrics
from repro.herd.simulator import (
    ModelLike,
    SimulationResult,
    Simulator,
    resolve_model,
)
from repro.litmus.ast import LitmusTest

__all__ = [
    "Session",
    "compare",
    "default_session",
    "simulate",
    "verdict",
    "repair",
    "observe",
    "sweep",
    "analyse",
    "verify",
]


class Session:
    """A stateful front door over the simulate/repair/observe/sweep/
    analyse/verify drivers, owning their shared state.

    ``model`` is the default model of every verb (a name, an
    :class:`~repro.core.model.Architecture`, a resolved model or a
    cat-interpreted model); ``engine`` defaults the enumeration engine
    of the simulation verbs (``simulate``/``verdict``/``sweep``;
    ``repair``/``observe``/``verify`` always use their drivers' own
    engine choice); ``strategy`` defaults the fence-placement
    strategy; ``processes``
    (``None`` for serial, an int, or ``"auto"`` for one worker per
    core) sizes the campaign pool batch verbs fan out on, whatever
    form the model takes (one that does not pickle runs in-process,
    with a :class:`~repro.campaign.CampaignPicklingWarning`);
    ``cache_size`` bounds the shared context cache (``None`` for
    unbounded).  Sessions are context managers — leaving the ``with``
    block shuts the pool down.

    Long-lived sessions (the verdict service) additionally bound their
    shared state: ``cache_ttl`` (seconds, ``None`` for no expiry) puts
    an *idle* time-to-live on the resolved-model, context and repair
    cycle-signature caches, ``cycle_cache_size`` LRU-bounds the cycle
    memo, and ``error_ring`` bounds :attr:`last_errors` to the newest N
    :class:`~repro.campaign.FailedItem` records — drops are counted in
    ``stats()["supervisor"]["errors_dropped"]``.

    Multi-worker sessions are **fault-tolerant by default**: batch
    verbs run on the supervised campaign layer
    (:mod:`repro.campaign.supervisor`), so a worker crash, a chunk
    exceeding ``chunk_timeout`` seconds, or an unpicklable exception
    never wedges the batch.  Failing chunks are retried
    ``max_retries`` times with exponential backoff (base
    ``retry_backoff`` seconds), dead workers are respawned, and poison
    items are bisected out and handled per ``on_error``:
    ``"quarantine"`` (the default — drop them from the results and
    record :class:`~repro.campaign.FailedItem` entries on the report's
    ``errors`` and on :attr:`last_errors`), ``"serial_retry"`` (one
    in-process retry in the parent first) or ``"raise"`` (raise
    :class:`~repro.campaign.PoisonItemError`).  Supervision counters
    accumulate in ``stats()["supervisor"]``.  A serial session runs its
    batches through the same runner, in-process and unsupervised: there
    is no worker to lose, so an exception propagates to the caller.
    """

    def __init__(
        self,
        model: ModelLike = "power",
        engine: str = "optimal",
        strategy: str = "greedy",
        processes=None,
        cache_size: Optional[int] = 256,
        telemetry: bool = False,
        chunk_timeout: Optional[float] = None,
        on_error: str = "quarantine",
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        cache_ttl: Optional[float] = None,
        cycle_cache_size: Optional[int] = 4096,
        error_ring: int = 256,
    ):
        self.model = model
        self.engine = engine
        self.strategy = strategy
        self.processes = processes
        self.cache_ttl = cache_ttl
        self.policy = SupervisorPolicy(
            chunk_timeout=chunk_timeout,
            max_retries=max_retries,
            backoff=retry_backoff,
            on_error=on_error,
        )
        #: the FailedItem records of the most recent batch verb call,
        #: bounded to the newest ``error_ring`` records (lifetime drops
        #: show up as ``stats()["supervisor"]["errors_dropped"]``).
        self.last_errors: ErrorRing = ErrorRing(error_ring)
        self._supervisor_history = _supervisor.new_counters()
        self.context_cache = ContextCache(capacity=cache_size, ttl=cache_ttl)
        self._model_stats = CacheStats("model", entries=lambda: len(self._models))
        self._cycle_stats = CacheStats("cycle", entries=lambda: len(self.cycle_cache))
        #: (model name, strategy, cycle signature) -> mechanism seed,
        #: shared by every repair of the session (see repro.fences.campaign).
        #: Bounded: a long-lived session serving repair traffic would
        #: otherwise accumulate one seed per cycle shape forever.
        self.cycle_cache: Dict = BoundedTTLCache(
            max_entries=cycle_cache_size, ttl=cache_ttl, stats=self._cycle_stats
        )
        self._models: Dict[str, Any] = BoundedTTLCache(
            max_entries=128, ttl=cache_ttl, stats=self._model_stats
        )
        self._simulators: Dict = {}
        self._checkers: Dict = {}
        self._pool: Optional[CampaignPool] = None
        self._telemetry: Optional[Metrics] = None
        if telemetry:
            self.enable_telemetry()

    # -- lifecycle ----------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, grace: Optional[float] = None) -> None:
        """Shut the campaign pool down (the caches survive; a later
        batch verb restarts the pool lazily) and uninstall this
        session's telemetry registry if it is the active one.  The
        pool's supervision counters are folded into the session history
        first, so ``stats()["supervisor"]`` survives pool restarts.
        ``grace`` overrides the policy's shutdown grace period — a
        draining service passes a small one so an overdue chunk is
        killed instead of waited out.  Idempotent."""
        if self._pool is not None:
            for name, value in self._pool.counters.items():
                self._supervisor_history[name] = (
                    self._supervisor_history.get(name, 0) + value
                )
            self._pool.close(grace)
            self._pool = None
        self.disable_telemetry()

    # -- telemetry ----------------------------------------------------------------

    @property
    def telemetry(self) -> Optional[Metrics]:
        """This session's metrics registry, or ``None`` until enabled."""
        return self._telemetry

    def enable_telemetry(self, metrics: Optional[Metrics] = None) -> Metrics:
        """Install this session's registry as the process-active one.

        The registry persists across ``enable``/``disable`` cycles (its
        counters accumulate over the session's lifetime); pass
        ``metrics`` to adopt an external registry instead.  Returns the
        installed registry.
        """
        if metrics is not None:
            self._telemetry = metrics
        elif self._telemetry is None:
            self._telemetry = Metrics()
        _telemetry.enable(self._telemetry)
        return self._telemetry

    def disable_telemetry(self) -> None:
        """Stop collecting: uninstall the process-active registry if it
        is this session's (the registry itself is kept, so ``stats()``
        still reports everything collected so far)."""
        if self._telemetry is not None and _telemetry._ACTIVE is self._telemetry:
            _telemetry.disable()

    @contextlib.contextmanager
    def trace(self, path):
        """Collect telemetry for the ``with`` block and tee the span
        trace to *path* as JSONL on exit.

        Enables this session's registry on entry (leaving it enabled if
        it already was), yields the registry, and appends every span
        recorded so far — plus one trailing summary line — to *path*::

            with session.trace("campaign.jsonl"):
                session.repair(tests)
        """
        was_active = _telemetry._ACTIVE is self._telemetry and self._telemetry is not None
        registry = self.enable_telemetry()
        try:
            yield registry
        finally:
            if not was_active:
                self.disable_telemetry()
            registry.export_jsonl(path)

    # -- shared state -------------------------------------------------------------

    @property
    def workers(self) -> int:
        """The effective worker count of this session's ``processes``."""
        return worker_count(self.processes)

    def resolve(self, model: Optional[ModelLike] = None):
        """Resolve a model-like value (default: the session model),
        memoizing resolutions by name."""
        spec = self.model if model is None else model
        if isinstance(spec, str):
            key = spec.lower()
            cached = self._models.get(key)
            if cached is not None:
                self._model_stats.hit()
                return cached
            self._model_stats.miss()
            resolved = resolve_model(spec)
            self._models[key] = resolved
            return resolved
        return resolve_model(spec)

    def simulator(
        self, model: Optional[ModelLike] = None, engine: Optional[str] = None
    ) -> Simulator:
        """This session's simulator for a model (memoized by name)."""
        engine = self.engine if engine is None else engine
        spec = self.model if model is None else model
        if isinstance(spec, str):
            key = (spec.lower(), engine)
            simulator = self._simulators.get(key)
            if simulator is None:
                simulator = Simulator(self.resolve(spec), engine=engine)
                self._simulators[key] = simulator
            return simulator
        return Simulator(self.resolve(spec), engine=engine)

    def checker(
        self, model: Optional[ModelLike] = None, backend: str = "axiomatic"
    ):
        """This session's bounded model checker (memoized by name)."""
        from repro.verification.bmc import BoundedModelChecker

        spec = self.model if model is None else model
        if isinstance(spec, str):
            key = (spec.lower(), backend)
            checker = self._checkers.get(key)
            if checker is None:
                checker = BoundedModelChecker(spec, backend)
                self._checkers[key] = checker
            return checker
        return BoundedModelChecker(spec, backend)

    def pool(self) -> Optional[CampaignPool]:
        """The session's campaign pool, started lazily — or ``None``
        when the session is serial (``processes`` of ``None``/``1``, or
        ``"auto"`` on a single-core machine)."""
        if self.workers <= 1:
            return None
        if self._pool is None:
            self._pool = CampaignPool(self.processes, policy=self.policy)
        return self._pool

    def _fresh_errors(self) -> ErrorRing:
        """Reset and return :attr:`last_errors` for the next batch verb."""
        self.last_errors.clear()
        return self.last_errors

    def stats(self) -> Dict[str, Any]:
        """One coherent counter tree (all JSON-plain).

        The historical keys (``model_cache``/``context_cache``/
        ``cycle_cache``/``simulators``/``checkers``/``pool``) keep their
        exact shapes; two subtrees extend them:

        * ``caches`` — every cache on the unified
          :class:`~repro.telemetry.CacheStats` interface: the session's
          resolved-model, context, thread-path and repair
          cycle-signature caches, plus the process-wide ILP memo and
          parsed-cat-model caches when their modules have been imported;
        * ``telemetry`` — the session registry's snapshot (counters,
          gauges, histogram summaries, span count), or ``None`` when
          telemetry was never enabled.  After a sharded campaign this
          includes the merged worker-side counters.
        """
        import sys

        caches = {
            "model": self._model_stats.as_dict(),
            "context": self.context_cache.cache_stats().as_dict(),
            "paths": self.context_cache.path_cache.stats.as_dict(),
            "cycle": self._cycle_stats.as_dict(),
        }
        # Process-wide caches, reported only once their module is in —
        # stats() must never be the thing that imports a driver.
        ilp = sys.modules.get("repro.fences.ilp")
        if ilp is not None:
            caches["ilp_memo"] = ilp.cache_stats().as_dict()
        stdlib = sys.modules.get("repro.cat.stdlib")
        if stdlib is not None:
            caches["cat_models"] = stdlib.cache_stats().as_dict()

        telemetry_tree = None
        if self._telemetry is not None:
            snapshot = self._telemetry.snapshot()
            telemetry_tree = snapshot.to_dict()

        supervisor_counters = dict(self._supervisor_history)
        if self._pool is not None:
            for name, value in self._pool.counters.items():
                supervisor_counters[name] += value

        return {
            "model_cache": {
                "entries": len(self._models),
                "hits": self._model_stats.hits,
                "misses": self._model_stats.misses,
            },
            "context_cache": self.context_cache.stats(),
            "cycle_cache": {"entries": len(self.cycle_cache)},
            "simulators": len(self._simulators),
            "checkers": len(self._checkers),
            "pool": {
                "processes": self.processes,
                "workers": self.workers,
                "started": self._pool is not None,
            },
            "caches": caches,
            "supervisor": {
                "policy": self.policy.as_dict(),
                "counters": supervisor_counters,
                "last_errors": len(self.last_errors),
                "errors_dropped": self.last_errors.dropped,
            },
            "telemetry": telemetry_tree,
        }

    # -- verbs --------------------------------------------------------------------

    def simulate(
        self,
        tests: Union[LitmusTest, Sequence[LitmusTest]],
        model: Optional[ModelLike] = None,
        engine: Optional[str] = None,
        *,
        keep_candidates: bool = False,
        stop_at_first_violation: bool = True,
        until: Optional[str] = None,
    ) -> Union[SimulationResult, List[SimulationResult]]:
        """Full simulation summaries — one result per test.

        A single test runs in-process on the session caches; an
        iterable is one batch on the warm pool (full summaries pickle
        fine), except for ``keep_candidates`` batches, which run
        in-process so the candidate objects never cross a process
        boundary.
        """
        if isinstance(tests, LitmusTest):
            return self._simulate_one(
                tests, model, engine, keep_candidates, stop_at_first_violation, until
            )
        from repro.campaign.jobs import SimulateJob, caller_context_cache, simulate_chunk

        resolved = self.resolve(model)
        effective = self.engine if engine is None else engine
        jobs = [
            SimulateJob(
                test, resolved, effective, until, keep_candidates,
                stop_at_first_violation,
            )
            for test in tests
        ]
        with caller_context_cache(self.context_cache):
            return run_sharded(
                simulate_chunk,
                jobs,
                pool=None if keep_candidates else self.pool(),
                errors=self._fresh_errors(),
            )

    def _simulate_one(
        self, test, model, engine, keep_candidates, stop_at_first_violation, until
    ) -> SimulationResult:
        simulator = self.simulator(model, engine)
        context = None if keep_candidates else self.context_cache.get(test)
        return simulator.run(
            test,
            keep_candidates=keep_candidates,
            stop_at_first_violation=stop_at_first_violation,
            until=until,
            context=context,
        )

    def verdict(
        self,
        tests: Union[LitmusTest, Sequence[LitmusTest]],
        model: Optional[ModelLike] = None,
        engine: Optional[str] = None,
    ) -> Union[str, List[str]]:
        """Allow/Forbid of the target outcome (the early-exit fast path).

        A single test returns one verdict string; an iterable returns
        the verdicts in order (dispatched through :meth:`sweep`, i.e.
        the campaign runtime on the warm pool).
        """
        if isinstance(tests, LitmusTest):
            simulator = self.simulator(model, engine)
            return simulator.verdict(tests, context=self.context_cache.get(tests))
        swept = self.sweep(tests, model=model, engine=engine)
        return [test_verdict for _, test_verdict in swept.verdicts]

    def sweep(
        self,
        tests: Union[LitmusTest, Sequence[LitmusTest]],
        model: Optional[ModelLike] = None,
        engine: Optional[str] = None,
    ):
        """Verdicts of a whole family under one model (a
        :class:`~repro.diy.families.FamilySweep`)."""
        from repro.diy.families import sweep_family

        batch = [tests] if isinstance(tests, LitmusTest) else list(tests)
        return sweep_family(
            batch,
            self.resolve(model),
            processes=self.processes,
            engine=self.engine if engine is None else engine,
            context_cache=self.context_cache,
            pool=self.pool(),
            errors=self._fresh_errors(),
        )

    def compare(
        self,
        model_a: ModelLike,
        model_b: Optional[ModelLike] = None,
        *,
        budget=None,
        tests: Optional[Sequence[LitmusTest]] = None,
        engine: Optional[str] = None,
    ):
        """Compare two models over a bounded corpus: a
        :class:`~repro.compare.report.ComparisonReport` with the
        stronger/weaker/incomparable/equivalent-on-corpus verdict and a
        minimal distinguishing witness per direction.

        ``model_b`` defaults to the session model; ``budget`` (a
        :class:`~repro.compare.corpus.CorpusBudget`) or ``tests``
        selects the corpus.  Paired verdicts shard over the session's
        warm pool on a multi-worker session; either way both models'
        verdicts of one test share a single cached simulation context.
        """
        from repro.compare.engine import compare_models

        model_b = self.model if model_b is None else model_b
        return compare_models(
            model_a,
            model_b,
            budget=budget,
            tests=tests,
            engine=self.engine if engine is None else engine,
            processes=self.processes,
            pool=self.pool(),
            context_cache=self.context_cache,
            errors=self._fresh_errors(),
        )

    def repair(
        self,
        tests: Union[LitmusTest, Sequence[LitmusTest]],
        model: Optional[ModelLike] = None,
        strategy: Optional[str] = None,
    ):
        """Synthesize validated fences: one test yields a
        :class:`~repro.fences.validate.RepairReport`, an iterable a
        :class:`~repro.fences.campaign.CampaignResult`.

        Every repair of the session shares one cycle-signature memo and
        the context cache, so repairing families batch by batch keeps
        the seeds (and the interned tests) warm.
        """
        strategy = self.strategy if strategy is None else strategy
        if isinstance(tests, LitmusTest):
            from repro.fences.campaign import repair_one

            report = repair_one(
                tests,
                self.resolve(model),
                self.cycle_cache,
                context_cache=self.context_cache,
                strategy=strategy,
            )
            self._count_cycle_traffic([report])
            return report
        from repro.fences.campaign import repair_family

        result = repair_family(
            list(tests),
            self.resolve(model),
            processes=self.processes,
            cache=self.cycle_cache,
            context_cache=self.context_cache,
            pool=self.pool(),
            strategy=strategy,
            errors=self._fresh_errors(),
        )
        self._count_cycle_traffic(result.reports)
        return result

    def _count_cycle_traffic(self, reports) -> None:
        """Fold repair reports into the cycle-signature cache counters.

        The memo itself is a plain dict consulted inside the repair
        driver (possibly in worker processes), so the session counts
        traffic from the reports' ``from_cache`` flags — which reflect
        the memo state wherever the repair actually ran.
        """
        for report in reports:
            if getattr(report, "from_cache", False):
                self._cycle_stats.hit()
            else:
                self._cycle_stats.miss()

    def observe(
        self,
        tests: Union[LitmusTest, Sequence[LitmusTest]],
        chips=None,
        model: Optional[ModelLike] = None,
        iterations: int = 1_000_000,
        seed: int = 2014,
    ):
        """Run tests on a (simulated) chip population and compare with
        the model: one test yields an
        :class:`~repro.hardware.testing.ObservedTest`, an iterable a
        :class:`~repro.hardware.testing.CampaignReport`.

        ``chips=None`` infers the default population from the model
        family (Power models observe the Power chips, ARM models the
        ARM chips); RNG seeds are drawn exactly as
        :func:`~repro.hardware.testing.run_campaign` draws them, so a
        single-test observation equals the first row of a campaign.
        """
        if chips is None:
            chips = self._default_chips(model)
        if isinstance(tests, LitmusTest):
            from repro.hardware.testing import observe_test

            rng = random.Random(seed)
            seeds = tuple(rng.randint(0, 2**31) for _ in chips)
            return observe_test(
                self.simulator(model),
                tests,
                chips,
                iterations,
                seeds,
                context_cache=self.context_cache,
            )
        from repro.hardware.testing import run_campaign

        return run_campaign(
            list(tests),
            chips,
            self.resolve(model),
            iterations=iterations,
            seed=seed,
            processes=self.processes,
            context_cache=self.context_cache,
            pool=self.pool(),
            errors=self._fresh_errors(),
        )

    def _default_chips(self, model: Optional[ModelLike]):
        resolved = self.resolve(model)
        name = str(getattr(resolved, "name", resolved)).lower()
        if "arm" in name:
            from repro.hardware.chips import default_arm_chips

            return default_arm_chips()
        if "power" in name:
            from repro.hardware.chips import default_power_chips

            return default_power_chips()
        raise ValueError(
            f"no default chip population for model {name!r}; pass chips="
        )

    def analyse(self, programs, max_cycle_length: int = 6):
        """Run the mole static cycle analysis: one program yields a
        :class:`~repro.mole.report.MoleReport`, a mapping (package name
        -> programs) a per-package report dictionary, any other
        iterable a list of per-program reports — batches on the
        session pool."""
        from repro.verification.program import Program

        if isinstance(programs, Program):
            from repro.mole.report import analyse_program

            return analyse_program(programs, max_cycle_length)
        if isinstance(programs, Mapping):
            from repro.mole.report import analyse_corpus

            return analyse_corpus(
                programs,
                max_cycle_length,
                processes=self.processes,
                pool=self.pool(),
                errors=self._fresh_errors(),
            )
        from repro.campaign.jobs import MoleJob, mole_chunk
        from repro.mole.report import MoleReport

        jobs = [
            MoleJob(program.name, (program,), max_cycle_length)
            for program in programs
        ]
        return [
            MoleReport(name=name, cycles=cycles)
            for name, cycles in run_sharded(
                mole_chunk,
                jobs,
                chunk_size=2,
                pool=self.pool(),
                errors=self._fresh_errors(),
            )
        ]

    def verify(
        self,
        items,
        model: Optional[ModelLike] = None,
        backend: str = "axiomatic",
    ):
        """Bounded model checking: one program or litmus test yields a
        :class:`~repro.verification.bmc.VerificationResult`, an
        iterable a list of results (sharded over the session pool)."""
        from repro.verification.program import Program

        if isinstance(items, (Program, LitmusTest)):
            checker = self.checker(model, backend)
            if isinstance(items, Program):
                return checker.verify(items)
            return checker.verify_litmus(items)
        from repro.verification.bmc import verify_batch

        return verify_batch(
            list(items),
            self.resolve(model),
            backend=backend,
            processes=self.processes,
            pool=self.pool(),
            errors=self._fresh_errors(),
        )


# -- the process-wide default session ---------------------------------------------

_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The process-wide default session behind the module-level verbs.

    Serial by construction (``processes=None``): the module-level API
    never spawns worker processes implicitly.  Build your own
    :class:`Session` for pooled batches.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def simulate(tests, model=None, engine=None, **kwargs):
    """:meth:`Session.simulate` on the default session."""
    return default_session().simulate(tests, model=model, engine=engine, **kwargs)


def verdict(tests, model=None, engine=None):
    """:meth:`Session.verdict` on the default session."""
    return default_session().verdict(tests, model=model, engine=engine)


def compare(model_a, model_b=None, *, budget=None, tests=None, engine=None):
    """:meth:`Session.compare` on the default session."""
    return default_session().compare(
        model_a, model_b, budget=budget, tests=tests, engine=engine
    )


def repair(tests, model=None, strategy=None):
    """:meth:`Session.repair` on the default session."""
    return default_session().repair(tests, model=model, strategy=strategy)


def observe(tests, chips=None, model=None, iterations: int = 1_000_000, seed: int = 2014):
    """:meth:`Session.observe` on the default session."""
    return default_session().observe(
        tests, chips=chips, model=model, iterations=iterations, seed=seed
    )


def sweep(tests, model=None, engine=None):
    """:meth:`Session.sweep` on the default session."""
    return default_session().sweep(tests, model=model, engine=engine)


def analyse(programs, max_cycle_length: int = 6):
    """:meth:`Session.analyse` on the default session."""
    return default_session().analyse(programs, max_cycle_length=max_cycle_length)


def verify(items, model=None, backend: str = "axiomatic"):
    """:meth:`Session.verify` on the default session."""
    return default_session().verify(items, model=model, backend=backend)
