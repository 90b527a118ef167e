"""The telemetry layer: registry semantics, zero-overhead guards, the
unified cache-statistics interface, and cross-process aggregation.

The load-bearing guarantees:

* with no registry installed, every module-level verb is a no-op and
  every instrumented layer takes its pre-telemetry path;
* snapshot merging is order-independent on every total, so sharded
  campaign counters equal the serial run's;
* snapshots are JSON-plain — pickling one never drags a simulator,
  model or test object across a process boundary;
* the context cache's counter attributes and ``Session.stats()``'s
  key shapes survive the migration onto
  :class:`~repro.telemetry.CacheStats`.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import telemetry
from repro.litmus.registry import get_test
from repro.session import Session
from repro.telemetry import CacheStats, Histogram, Metrics, MetricsSnapshot


@pytest.fixture(autouse=True)
def _uninstall_registry():
    """No test may leak an active registry into the rest of the suite."""
    yield
    telemetry.disable()


# -- the registry -------------------------------------------------------------------


def test_counters_gauges_and_histograms():
    metrics = Metrics()
    metrics.count("a")
    metrics.count("a", 4)
    metrics.set_gauge("g", 0.25)
    for value in (1.0, 2.0, 3.0, 4.0):
        metrics.observe("h", value)
    snapshot = metrics.snapshot()
    assert snapshot.counters == {"a": 5}
    assert snapshot.gauges == {"g": 0.25}
    summary = snapshot.histograms["h"]
    assert summary["count"] == 4
    assert summary["total"] == 10.0
    assert summary["mean"] == 2.5
    assert summary["min"] == 1.0 and summary["max"] == 4.0
    assert summary["p50"] == 3.0  # nearest-rank over [1,2,3,4]
    assert summary["p99"] == 4.0


def test_histogram_samples_are_bounded_but_totals_stay_exact():
    histogram = Histogram("h", max_samples=16)
    for value in range(1000):
        histogram.record(float(value))
    assert histogram.count == 1000
    assert histogram.total == sum(range(1000))
    assert histogram.min == 0.0 and histogram.max == 999.0
    assert len(histogram._samples) == 16
    # Percentiles cover the most recent window only.
    assert histogram.percentile(0.0) == 984.0


def test_span_ring_buffer_drops_oldest_and_counts_drops():
    metrics = Metrics(max_spans=8)
    for index in range(20):
        with metrics.span("step", index=index):
            pass
    assert len(metrics.spans) == 8
    assert metrics.spans_dropped == 12
    assert [event.tags["index"] for event in metrics.spans] == list(range(12, 20))
    # Spans also feed a histogram of the same name.
    assert metrics.histogram("step").count == 20


def test_timer_records_into_histogram_without_a_span():
    metrics = Metrics()
    with metrics.timer("t"):
        pass
    assert metrics.histogram("t").count == 1
    assert metrics.spans == []


def test_export_jsonl_is_valid_and_self_contained(tmp_path):
    metrics = Metrics()
    with metrics.span("work", test="mp"):
        metrics.count("inner")
    path = tmp_path / "trace.jsonl"
    lines_written = metrics.export_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines_written == len(lines) == 2
    assert lines[0]["type"] == "span"
    assert lines[0]["name"] == "work"
    assert lines[0]["tags"] == {"test": "mp"}
    assert lines[0]["duration"] >= 0.0
    assert lines[-1]["type"] == "metrics"
    assert lines[-1]["counters"] == {"inner": 1}


def test_snapshot_describe_renders_a_table():
    metrics = Metrics()
    metrics.count("engine.walks", 3)
    metrics.observe("herd.run", 0.5)
    text = metrics.snapshot().describe()
    assert "engine.walks" in text and "3" in text
    assert "herd.run" in text and "p99" in text


# -- the process-global switch -------------------------------------------------------


def test_module_verbs_are_noops_while_disabled():
    assert not telemetry.enabled()
    assert telemetry.active() is None
    telemetry.count("x")
    telemetry.observe("y", 1.0)
    telemetry.set_gauge("z", 1.0)
    # The disabled span/timer is one shared do-nothing context manager.
    assert telemetry.span("s", tag=1) is telemetry.timer("t")
    with telemetry.span("s"):
        pass
    # Nothing was recorded anywhere: enabling afterwards starts clean.
    registry = telemetry.enable()
    assert registry.snapshot().counters == {}


def test_enable_disable_roundtrip():
    registry = telemetry.enable()
    assert telemetry.enabled() and telemetry.active() is registry
    telemetry.count("hits", 2)
    assert registry.snapshot().counters == {"hits": 2}
    returned = telemetry.disable()
    assert returned is registry
    assert not telemetry.enabled()


# -- merging and pickling ------------------------------------------------------------


def _worker_snapshot(seed: int) -> MetricsSnapshot:
    metrics = Metrics()
    metrics.count("jobs", seed)
    metrics.observe("seconds", float(seed))
    metrics.set_gauge("level", float(seed))
    with metrics.span("chunk", shard=seed):
        pass
    return metrics.snapshot()


def test_merge_totals_are_order_independent():
    snapshots = [_worker_snapshot(seed) for seed in (1, 2, 3)]
    forward, backward = Metrics(), Metrics()
    for snapshot in snapshots:
        forward.merge(snapshot)
    for snapshot in reversed(snapshots):
        backward.merge(snapshot)
    a, b = forward.snapshot(), backward.snapshot()
    assert a.counters == b.counters == {"jobs": 6}
    for name in ("seconds", "chunk"):
        for key in ("count", "total", "min", "max"):
            assert a.histograms[name][key] == b.histograms[name][key], (name, key)
    assert len(a.spans) == len(b.spans) == 3
    # Gauges are last-write-wins by contract: order may matter there.


def _assert_json_plain(value, path="snapshot"):
    if isinstance(value, dict):
        for key, nested in value.items():
            assert isinstance(key, str), f"{path}: non-string key {key!r}"
            _assert_json_plain(nested, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, nested in enumerate(value):
            _assert_json_plain(nested, f"{path}[{index}]")
    else:
        assert value is None or isinstance(value, (bool, int, float, str)), (
            f"{path}: non-plain value {value!r}"
        )


def test_snapshots_pickle_without_dragging_engine_state():
    session = Session(model="power", telemetry=True)
    try:
        session.verdict(get_test("mp"))
    finally:
        session.close()
    snapshot = session.telemetry.snapshot()
    _assert_json_plain(snapshot.counters)
    _assert_json_plain(snapshot.gauges)
    _assert_json_plain(snapshot.histograms)
    _assert_json_plain(snapshot.spans)
    restored = pickle.loads(pickle.dumps(snapshot))
    assert restored == snapshot
    # And the JSON round trip agrees with the Report protocol.
    assert json.loads(snapshot.to_json())["type"] == "telemetry"


# -- the unified cache-statistics interface ------------------------------------------


def test_cache_stats_counts_and_rates():
    entries = {"a": 1}
    stats = CacheStats("demo", entries=lambda: len(entries))
    assert stats.hit_rate == 0.0
    stats.hit()
    stats.miss()
    stats.hit(2)
    stats.evict(3)
    stats.expire(2)
    assert (stats.hits, stats.misses, stats.evictions) == (3, 1, 3)
    assert stats.expirations == 2
    assert stats.total == 4
    assert stats.hit_rate == 0.75
    assert stats.as_dict() == {
        "name": "demo",
        "entries": 1,
        "hits": 3,
        "misses": 1,
        "evictions": 3,
        "expirations": 2,
        "hit_rate": 0.75,
    }
    stats.reset()
    assert stats.total == 0 and stats.evictions == 0 and stats.expirations == 0


def test_cache_stats_mirror_into_the_active_registry():
    stats = CacheStats("mirror")
    stats.hit()  # before enabling: counted locally only
    registry = telemetry.enable()
    stats.hit()
    stats.miss()
    stats.evict(4)
    counters = registry.snapshot().counters
    assert counters["cache.mirror.hits"] == 1
    assert counters["cache.mirror.misses"] == 1
    assert counters["cache.mirror.evictions"] == 4
    assert stats.hits == 2  # local totals keep the pre-enable traffic


def test_context_cache_counters_stay_readable_attributes():
    from repro.campaign import ContextCache

    cache = ContextCache(capacity=1)
    mp, sb = get_test("mp"), get_test("sb")
    cache.get(mp)
    cache.get(mp)
    cache.get(sb)  # evicts mp
    assert (cache.hits, cache.misses, cache.evictions) == (1, 2, 1)
    assert cache.expirations == 0  # a capacity eviction is not an expiry
    assert cache.stats() == {
        "entries": 1, "hits": 1, "misses": 2, "evictions": 1, "expirations": 0,
    }
    assert cache.cache_stats().name == "context"


# -- the session --------------------------------------------------------------------


def test_session_stats_tree_covers_every_cache():
    session = Session(model="power", telemetry=True)
    try:
        session.verdict(get_test("mp"))
        session.repair(get_test("sb"))
        stats = session.stats()
    finally:
        session.close()
    # Historical keys keep their exact shapes.
    assert set(stats["model_cache"]) == {"entries", "hits", "misses"}
    assert set(stats["context_cache"]) == {
        "entries", "hits", "misses", "evictions", "expirations",
    }
    assert set(stats["cycle_cache"]) == {"entries"}
    # The unified subtree reports every cache through one interface.
    caches = stats["caches"]
    for name in ("model", "context", "cycle", "ilp_memo"):
        assert set(caches[name]) == {
            "name", "entries", "hits", "misses", "evictions", "expirations",
            "hit_rate",
        }, name
    assert caches["model"]["misses"] >= 1
    assert caches["cycle"]["entries"] >= 1
    # The telemetry subtree carries the engine counters of the verbs above.
    counters = stats["telemetry"]["counters"]
    assert counters["engine.walks"] >= 1
    assert counters["herd.verdict_queries"] >= 1
    assert json.dumps(stats)  # the whole tree is JSON-plain


def test_session_close_uninstalls_its_registry():
    session = Session(telemetry=True)
    assert telemetry.active() is session.telemetry
    session.close()
    assert telemetry.active() is None
    # A foreign registry is never uninstalled by someone else's close().
    other = telemetry.enable()
    session2 = Session(telemetry=True)
    telemetry.enable(other)
    session2.close()
    assert telemetry.active() is other


def test_session_trace_tees_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    session = Session(model="power")
    try:
        with session.trace(str(path)) as registry:
            assert telemetry.active() is registry
            session.verdict(get_test("mp"))
        assert telemetry.active() is None  # trace() restores the switch
    finally:
        session.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[-1]["type"] == "metrics"
    assert lines[-1]["counters"]["herd.verdict_queries"] >= 1
    span_names = {line["name"] for line in lines if line["type"] == "span"}
    assert "herd.run" in span_names


# -- cross-process aggregation -------------------------------------------------------


def _relevant(counters, prefixes=("engine.", "herd.")):
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(prefixes)
    }


def _sweep_counters(processes):
    session = Session(model="power", processes=processes, telemetry=True)
    try:
        tests = [get_test(name) for name in ("mp", "sb", "lb", "wrc", "iriw", "2+2w")]
        sweep = session.sweep(tests)
        verdicts = [verdict for _, verdict in sweep.verdicts]
        return verdicts, session.telemetry.snapshot()
    finally:
        session.close()


def test_sharded_sweep_counters_equal_serial():
    serial_verdicts, serial = _sweep_counters(None)
    sharded_verdicts, sharded = _sweep_counters(2)
    assert serial_verdicts == sharded_verdicts
    assert _relevant(serial.counters) == _relevant(sharded.counters)
    # The engine walked at least one plan per test in both worlds.
    assert serial.counters["engine.walks"] >= 6
    # Both runs are one runner batch, so both have chunk accounting.
    for snapshot in (serial, sharded):
        assert snapshot.counters["campaign.chunks"] >= 1
        assert "campaign.chunk_seconds" in snapshot.histograms


def _repair_counters(processes):
    session = Session(model="power", processes=processes, telemetry=True)
    try:
        # Distinct cycle signatures: no within-batch memo traffic, so
        # serial (shared memo) and sharded (per-chunk memo snapshots)
        # perform identical validation work.
        tests = [get_test(name) for name in ("mp", "sb", "lb", "wrc")]
        result = session.repair(tests)
        repaired = [report.success for report in result.reports]
        return repaired, session.telemetry.snapshot()
    finally:
        session.close()


def test_sharded_repair_counters_equal_serial():
    serial_repaired, serial = _repair_counters(None)
    sharded_repaired, sharded = _repair_counters(2)
    assert serial_repaired == sharded_repaired
    assert _relevant(serial.counters) == _relevant(sharded.counters)


def test_instrumented_chunk_shadows_an_inherited_registry():
    """A chunk must collect into its own fresh registry — whatever
    registry the (possibly forked) process already had installed is
    restored untouched afterwards."""
    from repro.campaign.runner import _instrumented_chunk

    inherited = telemetry.enable()

    def worker(chunk, payload):
        telemetry.count("inside", len(chunk))
        return list(chunk)

    outcome, snapshot = _instrumented_chunk(worker, [1, 2, 3], None, 0.0)
    assert outcome == [1, 2, 3]
    assert snapshot.counters["inside"] == 3
    assert snapshot.counters["campaign.jobs"] == 3
    assert telemetry.active() is inherited
    assert "inside" not in inherited.snapshot().counters
