"""Per-test simulation contexts: memoizing the front half of the pipeline.

A verdict or simulation query splits into two halves:

1. a **front half** that depends only on the litmus test — enumerate the
   per-thread control/data paths, intern each combination's event
   universe into an :class:`~repro.core.bitrel.EventIndex`, build the
   fixed relations (po, addr/data/ctrl, fences) and the per-combination
   plan (:class:`~repro.herd.optimal.OptimalPlan`) with its solved
   per-location walks;
2. a **back half** — the plan walk plus the model's axiom checks.  Only
   the checks depend on the model: which leaves a verdict walk reaches
   and the executions it builds for them do not.

That model-independent work is most of a verdict query, so repeated
queries against the same test — the fence escalation loop's
re-validations, Sec. 8.2-style model comparisons, Tab. IX engine
re-runs, a chip population simulating one test under several
implementation models — would redo it for nothing.  A
:class:`SimulationContext` memoizes it per test: the front half, and
per plan the target-matching leaves its verdict walks materialized,
each with one :class:`~repro.core.execution.Execution` that every
model then checks.  A :class:`ContextCache` keys contexts by
*structural* test identity, so a test spliced by the fence-repair
pipeline (new fences, new dependency instructions) never hits the
original's entry: stale relations are unreachable by construction.
Below the contexts, the cache keeps the thread paths of each distinct
thread program, which the diy families and spliced tests share widely.

Contexts build lazily at per-combination granularity: a verdict-only
query against a register-only ``exists`` clause interns only the
combinations that can witness the target
(:func:`repro.herd.optimal.combination_matches_target`), and a later
full run completes the remaining combinations on demand.  Whatever a
context keeps goes when the cache evicts it.  A query without a cache
runs on a throwaway context: there is one source of plans.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.herd.enumerate import CombinationContext, _thread_paths, combination_context
from repro.herd.optimal import OptimalPlan, combination_matches_target
from repro.litmus.ast import LitmusTest
from repro.util.caches import BoundedTTLCache

Fingerprint = Tuple

#: Entries of each :class:`ContextCache`'s thread-path cache.  The
#: registry and the diy families reuse a few thread shapes: a sweep of
#: all 1,972 tests looks up 5,771 threads but only 220 distinct keys.
PATH_CACHE_ENTRIES = 1024


def test_fingerprint(test: LitmusTest) -> Fingerprint:
    """Structural identity of a litmus test.

    Two tests share a fingerprint exactly when they share architecture,
    instruction streams, initial state and final condition — everything
    the front half of the pipeline reads.  The name and doc string are
    deliberately excluded (a repaired test often keeps its ancestor's
    name) and any splice that changes an instruction — a fence, a false
    dependency — changes the fingerprint.
    """
    condition = str(test.condition) if test.condition is not None else None
    return (
        test.arch,
        tuple(
            tuple(instruction.mnemonic() for instruction in thread)
            for thread in test.threads
        ),
        tuple(
            sorted(
                (thread, register, str(value))
                for (thread, register), value in test.init_registers.items()
            )
        ),
        tuple(sorted(test.init_memory.items())),
        condition,
    )


# Not a pytest test function, despite the name.
test_fingerprint.__test__ = False  # type: ignore[attr-defined]


class SimulationContext:
    """The memoized front half of simulating one litmus test.

    Thread paths, per-combination :class:`CombinationContext` objects
    and per-variant :class:`OptimalPlan` objects are built on first use
    and reused by every subsequent query — under any model, since none
    of them depend on one.  ``path_cache`` (a :class:`ContextCache`
    hands over its own) shares thread paths with the other contexts of
    that cache.  A cached plan keeps its solved per-location walks and
    what its verdict walks found (:meth:`OptimalPlan.target_leaves`), so
    repeated queries skip the exploration and every model checks the
    same target-matching executions.  No generator outlives the query
    that opened it, so a cached context may serve any number of
    sequential queries.
    """

    __slots__ = (
        "test", "_paths", "_combinations", "_locations", "_contexts", "_plans",
        "_path_cache", "_targets",
    )

    def __init__(self, test: LitmusTest, path_cache: Optional[BoundedTTLCache] = None):
        self.test = test
        self._paths: Optional[List[Sequence]] = None
        self._combinations: Optional[Tuple] = None
        self._locations: Optional[set] = None
        self._contexts: Dict[int, CombinationContext] = {}
        self._plans: Dict[Tuple[str, str, int], OptimalPlan] = {}
        self._path_cache = path_cache
        #: indices of the combinations that can witness the target.
        self._targets: Optional[Tuple[int, ...]] = None

    def combinations(self) -> Tuple:
        """All choices of per-thread paths (enumerated once)."""
        if self._combinations is None:
            self._paths = _thread_paths(self.test, cache=self._path_cache)
            self._combinations = tuple(itertools.product(*self._paths))
            self._locations = set(self.test.locations())
        return self._combinations

    def context(self, index: int) -> CombinationContext:
        """The interned context of combination *index* (built once)."""
        context = self._contexts.get(index)
        if context is None:
            combination = self.combinations()[index]
            context = combination_context(
                combination, self._locations, self.test.init_memory
            )
            self._contexts[index] = context
        return context

    def plan(
        self, variant: str, index: int, engine: str = "optimal"
    ) -> OptimalPlan:
        """The plan of combination *index* for one SC-PER-LOCATION
        variant (built once per key).  ``engine`` names the planned
        engine the plan serves; it is part of the cache key
        ``(engine, variant, index)``."""
        key = (engine, variant, index)
        plan = self._plans.get(key)
        if plan is None:
            plan = OptimalPlan(self.context(index), self.test, variant)
            self._plans[key] = plan
        return plan

    def plans(
        self, variant: str = "standard", engine: str = "optimal"
    ) -> Iterator[OptimalPlan]:
        """Every combination's plan, in combination order."""
        for index in range(len(self.combinations())):
            yield self.plan(variant, index, engine)

    def target_plans(
        self, variant: str = "standard", engine: str = "optimal"
    ) -> Iterator[OptimalPlan]:
        """Plans of the combinations that could witness the target:
        register atoms of the condition filter whole combinations
        (:func:`~repro.herd.optimal.combination_matches_target`) before
        any is interned."""
        if self._targets is None:
            condition = self.test.condition
            assert condition is not None, "target_plans needs a final condition"
            self._targets = tuple(
                index
                for index, combination in enumerate(self.combinations())
                if combination_matches_target(combination, condition)
            )
        for index in self._targets:
            yield self.plan(variant, index, engine)


class ContextCache:
    """An LRU cache of :class:`SimulationContext`, keyed structurally.

    ``capacity`` bounds memory in long campaigns: the fence escalation
    loop creates a fresh spliced test per candidate fence set, and each
    spliced test gets (correctly) its own context; evicting the least
    recently used entries keeps the working set to the tests actually
    being re-queried.  ``ttl`` (seconds, ``None`` for no expiry) adds an
    *idle* bound for long-lived owners like the verdict service: an
    entry untouched for ``ttl`` seconds counts as evicted and is rebuilt
    on its next use.  Both bounds are a :class:`BoundedTTLCache`'s,
    keyed by :func:`test_fingerprint`; ``hits``/``misses`` feed the
    benchmarks.

    The cache also owns :attr:`path_cache`, the thread paths of every
    distinct thread program its contexts have met (at most
    :data:`PATH_CACHE_ENTRIES`, with the same ``ttl``).  A spliced test
    re-enumerates only the threads the splice changed.  Like the
    contexts, the paths stay in the process that built them.
    """

    def __init__(self, capacity: Optional[int] = 256, ttl: Optional[float] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        from repro.telemetry import CacheStats

        self.capacity = capacity
        self.ttl = ttl
        #: counters on the unified interface; ``hits``/``misses``/
        #: ``evictions``/``expirations`` remain readable as attributes.
        self._stats = CacheStats("context", entries=lambda: len(self._entries))
        self._entries = BoundedTTLCache(max_entries=capacity, ttl=ttl, stats=self._stats)
        self.path_cache = BoundedTTLCache(
            max_entries=PATH_CACHE_ENTRIES,
            ttl=ttl,
            stats=CacheStats("paths", entries=lambda: len(self.path_cache)),
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._stats.hits

    @property
    def misses(self) -> int:
        return self._stats.misses

    @property
    def evictions(self) -> int:
        return self._stats.evictions

    @property
    def expirations(self) -> int:
        return self._stats.expirations

    def get(self, test: LitmusTest) -> SimulationContext:
        """The context of *test*, building (and caching) it on a miss.
        An idle-expired entry counts as evicted and expired, the access
        as a miss."""
        key = test_fingerprint(test)
        context = self._entries.get(key)
        if context is not None:
            self._stats.hit()
            return context
        self._stats.miss()
        context = self._entries[key] = SimulationContext(test, path_cache=self.path_cache)
        return context

    def invalidate(self, test: LitmusTest) -> bool:
        """Drop *test*'s entry; True when one was present."""
        return self._entries.pop(test_fingerprint(test), None) is not None

    def clear(self) -> None:
        self._entries.clear()
        self.path_cache.clear()

    def cache_stats(self):
        """The cache's :class:`repro.telemetry.CacheStats`."""
        return self._stats

    def stats(self) -> Dict[str, int]:
        """Backcompat probe: the pre-telemetry dictionary shape."""
        return {
            "entries": len(self._entries),
            "hits": self._stats.hits,
            "misses": self._stats.misses,
            "evictions": self._stats.evictions,
            "expirations": self._stats.expirations,
        }
