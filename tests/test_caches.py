"""Bounded, idle-expiring caches for long-lived sessions.

A session behind the verdict service lives for days: every shared memo
(resolved models, repair cycle signatures, simulation contexts) must be
bounded in both entry count and idle time, or the process grows without
limit.  These tests drive :class:`~repro.util.caches.BoundedTTLCache`
with a fake clock and pin the session-level wiring: TTL reaches every
shared cache and evictions land in ``Session.stats()``.
"""

from __future__ import annotations

import dataclasses
import pickle
import time

import pytest

from repro.campaign.context import ContextCache
from repro.campaign.jobs import VerdictJob
from repro.diy.families import two_thread_family
from repro.herd.simulator import Simulator
from repro.litmus.registry import get_test
from repro.litmus.semantics import thread_init_registers, value_domain_of
from repro.session import Session
from repro.telemetry import CacheStats
from repro.util.caches import BoundedTTLCache


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_lru_bound_evicts_oldest_and_counts():
    stats = CacheStats("test")
    cache = BoundedTTLCache(max_entries=2, stats=stats)
    cache["a"], cache["b"] = 1, 2
    assert cache["a"] == 1  # touch: "a" is now most recently used
    cache["c"] = 3
    assert "b" not in cache
    assert dict(cache) == {"a": 1, "c": 3}
    assert stats.evictions == 1


def test_idle_ttl_expires_untouched_entries_only():
    clock = Clock()
    stats = CacheStats("test")
    cache = BoundedTTLCache(ttl=10.0, stats=stats, clock=clock)
    cache["young"] = 1
    cache["old"] = 2
    clock.now = 8.0
    assert cache["young"] == 1  # the read refreshes the idle stamp
    clock.now = 12.0
    assert "old" not in cache  # idle 12s > ttl
    assert cache["young"] == 1  # idle only 4s since the refresh
    with pytest.raises(KeyError):
        cache["old"]
    assert stats.evictions == 1
    assert len(cache) == 1


def test_purge_sweeps_everything_expired_at_once():
    clock = Clock()
    cache = BoundedTTLCache(ttl=5.0, clock=clock)
    for key in ("a", "b", "c"):
        cache[key] = key
    clock.now = 6.0
    cache["fresh"] = 1
    assert cache.purge() == 3
    assert list(cache) == ["fresh"]
    assert cache.purge() == 0


def test_mutable_mapping_protocol_supports_campaign_drivers():
    cache = BoundedTTLCache(max_entries=8)
    cache.update({"a": 1, "b": 2})  # merge, as repair_family does
    snapshot = dict(cache)  # snapshot, as the sharded payload does
    assert snapshot == {"a": 1, "b": 2}
    del cache["a"]
    assert cache.get("a") is None
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_cache_validates_its_bounds():
    with pytest.raises(ValueError):
        BoundedTTLCache(max_entries=0)
    with pytest.raises(ValueError):
        BoundedTTLCache(ttl=0)
    assert BoundedTTLCache(max_entries=None, ttl=None) is not None


def test_idle_expiry_is_attributed_separately_from_capacity_eviction():
    clock = Clock()
    stats = CacheStats("test")
    cache = BoundedTTLCache(max_entries=2, ttl=10.0, stats=stats, clock=clock)
    cache["a"], cache["b"] = 1, 2
    cache["c"] = 3  # capacity eviction of "a": not an expiry
    assert (stats.evictions, stats.expirations) == (1, 0)
    clock.now = 12.0
    assert "b" not in cache  # idle expiry: both counters move
    assert (stats.evictions, stats.expirations) == (2, 1)
    cache["d"] = 4
    clock.now = 24.0
    assert cache.purge() == 2  # purge-driven expiry is attributed too
    assert (stats.evictions, stats.expirations) == (4, 3)


def test_context_cache_expiry_reaches_stats_and_telemetry():
    from repro import telemetry

    cache = ContextCache(capacity=8, ttl=0.02)
    test = get_test("sb")
    metrics = telemetry.enable()
    try:
        cache.get(test)
        time.sleep(0.05)
        cache.get(test)  # rebuilds: one eviction, attributed as expiry
        assert cache.evictions == 1
        assert cache.expirations == 1
        assert cache.stats()["expirations"] == 1
        assert cache.cache_stats().as_dict()["expirations"] == 1
        counters = metrics.snapshot().counters
        assert counters["cache.context.expirations"] == 1
        assert counters["cache.context.evictions"] == 1
    finally:
        telemetry.disable()


def test_context_cache_idle_ttl_rebuilds_expired_contexts():
    cache = ContextCache(capacity=8, ttl=0.02)
    test = get_test("sb")
    first = cache.get(test)
    assert cache.get(test) is first
    assert cache.hits == 1
    time.sleep(0.05)
    rebuilt = cache.get(test)
    assert rebuilt is not first, "an idle-expired context must be rebuilt"
    assert cache.evictions == 1
    assert cache.misses == 2
    with pytest.raises(ValueError):
        ContextCache(ttl=-1.0)


def test_session_ttl_reaches_every_shared_cache():
    session = Session(model="power", cache_ttl=123.0, cycle_cache_size=7)
    assert session.context_cache.ttl == 123.0
    assert session.cycle_cache.ttl == 123.0
    assert session.cycle_cache.max_entries == 7
    assert session._models.ttl == 123.0


def test_session_error_ring_is_bounded_and_drops_are_reported():
    session = Session(model="power", error_ring=2)
    session.last_errors.extend(["one", "two", "three"])
    assert list(session.last_errors) == ["two", "three"]
    assert session.stats()["supervisor"]["errors_dropped"] == 1
    session.last_errors.clear()
    # Lifetime counter: visible even after the next batch reset.
    assert session.stats()["supervisor"]["errors_dropped"] == 1


# -- the thread-path cache -------------------------------------------------------


def _thread_keys(test):
    """The path-cache key of each thread: (thread index, instructions,
    initial registers, value domain)."""
    domain = tuple(value_domain_of(test))
    return [
        (index, tuple(thread), tuple(sorted(thread_init_registers(test, index).items())), domain)
        for index, thread in enumerate(test.threads)
    ]


def test_sweep_enumerates_each_distinct_thread_program_once():
    tests = two_thread_family("power")
    session = Session(model="power")
    session.sweep(tests)
    caches = session.stats()["caches"]
    paths = caches["paths"]
    distinct = {key for test in tests for key in _thread_keys(test)}
    # Every context built looks up each of its two threads once.
    lookups = 2 * caches["context"]["misses"]
    assert 0 < len(distinct) < lookups
    assert paths["misses"] == len(distinct)
    assert paths["hits"] == lookups - paths["misses"]
    assert paths["entries"] == len(distinct)
    assert paths["evictions"] == 0


def test_cached_thread_paths_are_shared_read_only():
    tests = two_thread_family("power")
    cache = ContextCache()
    first = {}
    shared = 0
    for test in tests:
        context = cache.get(test)
        context.combinations()
        for key, paths in zip(_thread_keys(test), context._paths):
            assert isinstance(paths, tuple)
            # One tuple per distinct thread program, whichever test asks.
            shared += key in first
            assert first.setdefault(key, paths) is paths
    assert shared
    for paths in cache.path_cache.values():
        for path in paths:
            assert isinstance(path.memory_events, tuple)
            assert isinstance(path.addr, tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                path.memory_events = ()


def test_path_cache_ttl_follows_the_context_cache():
    assert ContextCache(ttl=5.0).path_cache.ttl == 5.0
    assert ContextCache().path_cache.ttl is None


def test_thread_paths_never_cross_a_process_boundary():
    """Jobs, results and checked executions pickle without the path
    cache or anything it holds: a worker's cache is its own."""
    cache = ContextCache()
    test = get_test("mp")
    context = cache.get(test)
    result = Simulator("power").run(test, until="target", context=context)
    assert len(cache.path_cache) == len(test.threads)
    executions = [
        execution
        for plan in context.target_plans()
        for _, _, execution in plan._target_leaves
    ]
    assert executions
    for value in [VerdictJob(test, ("power", "arm")), result, *executions]:
        payload = pickle.dumps(value)
        for name in (b"BoundedTTLCache", b"CacheStats", b"ThreadExecution",
                     b"SimulationContext", b"OptimalPlan"):
            assert name not in payload, (type(value).__name__, name)
        pickle.loads(payload)
