"""Campaign runtime: process-sharded plan walks and the context cache.

Not a paper table: this benchmark tracks the shared campaign runtime
(:mod:`repro.campaign`) added on top of the planned engine.

* ``test_campaign_sharding_cold`` — a cold hardware-testing campaign
  (every test simulated under the reference model and a chip
  population) run serially and sharded over ``processes="auto"``.  The
  sharded report must equal the serial one; on a multi-core runner the
  sharded wall-clock must win.  On a single-core machine ``"auto"``
  degrades to the serial fallback, so the recorded ratio is ~1.0 there
  (the committed baseline comes from such a box — CI runners have the
  cores).
* ``test_campaign_context_cache_warm`` — an escalation-style loop:
  the same diy family swept under several models (the Sec. 8.2 shape;
  the fence-repair escalation loop re-validates the same way).  Cold
  sweeps rebuild every test's front half per model; warm sweeps share
  one :class:`~repro.campaign.ContextCache`, so models after the first
  skip straight to the plan walk.  Warm must beat cold on any machine.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.campaign import ContextCache, worker_count
from repro.diy.families import extended_family, standard_family, sweep_family, two_thread_family
from repro.hardware import default_power_chips, run_campaign


def _sharding_stats():
    tests = standard_family("power", max_threads=2, limit=80) + extended_family(
        "power", limit=12
    )
    chips = default_power_chips()

    start = time.perf_counter()
    serial = run_campaign(tests, chips, "power", iterations=100_000)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = run_campaign(
        tests, chips, "power", iterations=100_000, processes="auto", chunk_size=4
    )
    sharded_seconds = time.perf_counter() - start

    return {
        "tests": len(tests),
        "chips": len(chips),
        "workers": worker_count("auto"),
        "serial_seconds": serial_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": serial_seconds / sharded_seconds,
        "reports_equal": serial.results == sharded.results,
        "invalid": len(serial.invalid_tests),
        "unseen": len(serial.unseen_tests),
    }


def test_campaign_sharding_cold(benchmark):
    stats = run_once(benchmark, _sharding_stats)
    benchmark.extra_info.update(
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in stats.items()}
    )

    # Sharded campaigns report exactly what serial campaigns report.
    assert stats["reports_equal"]
    # On a multi-core runner the fan-out must actually pay; a single-core
    # machine runs the serial fallback twice, so there is nothing to win.
    if stats["workers"] >= 2:
        assert stats["speedup"] > 1.0


def _context_cache_stats():
    tests = two_thread_family("power", limit=96)
    models = ("power", "arm", "tso", "arm-llh")

    start = time.perf_counter()
    cold = [sweep_family(tests, model) for model in models]
    cold_seconds = time.perf_counter() - start

    cache = ContextCache(capacity=len(tests) + 8)
    start = time.perf_counter()
    warm = [sweep_family(tests, model, context_cache=cache) for model in models]
    warm_seconds = time.perf_counter() - start

    return {
        "tests": len(tests),
        "models": len(models),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "verdicts_equal": all(
            c.verdicts == w.verdicts for c, w in zip(cold, warm)
        ),
        "allowed_per_model": {sweep.model_name: sweep.num_allowed for sweep in cold},
    }


def test_campaign_context_cache_warm(benchmark):
    stats = run_once(benchmark, _context_cache_stats)
    benchmark.extra_info.update(
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in stats.items()}
    )

    # Context-cache hits change nothing but the wall-clock.
    assert stats["verdicts_equal"]
    # One context per test serves every model and variant...
    assert stats["cache_misses"] == stats["tests"]
    assert stats["cache_hits"] == stats["tests"] * (stats["models"] - 1)
    # ...and skipping the front half must actually show on the clock.
    assert stats["warm_seconds"] < stats["cold_seconds"]
    # The models must still disagree like Sec. 8.2 says they do (tso is
    # the strongest of the swept models, power/arm the weakest).
    allowed = stats["allowed_per_model"]
    assert allowed["tso"] < allowed["power"]
    assert allowed["tso"] < allowed["arm"]
