"""Fault-tolerant campaign runtime: healthy-path overhead and recovery.

Not a paper table: this benchmark gates the supervised execution layer
(:mod:`repro.campaign.supervisor`) added on top of the campaign runner.

* ``test_supervised_healthy_overhead`` — the same CPU-bound chunks run
  on a plain ``multiprocessing.Pool(2).starmap`` (the unsupervised
  reference: every ``CampaignPool`` batch is supervised) and on a
  ``CampaignPool`` under a ``SupervisorPolicy``.  Supervision buys chunk
  deadlines, retry, respawn and quarantine; on a healthy batch it must
  cost close to nothing — the recorded ``overhead`` ratio is the number
  the committed baseline tracks.
* ``test_supervised_crash_recovery`` — the same batch with one worker
  crash injected (``os._exit`` mid-chunk): the batch must still
  complete, quarantining exactly the poison item, and the recorded
  ``recovery_seconds`` tracks how much a retry + bisection round costs.
"""

from __future__ import annotations

import multiprocessing
import time

from benchmarks.conftest import run_once
from repro.campaign import CampaignPool, SupervisorPolicy, chunked
from repro.campaign.faults import FaultSpec, busy_chunk

JOBS = list(range(64))
SPINS = 20_000
CHUNK_SIZE = 4


def _healthy_overhead_stats():
    shards = [(chunk, SPINS) for chunk in chunked(JOBS, CHUNK_SIZE)]
    with multiprocessing.Pool(2) as bare:
        bare.starmap(busy_chunk, shards, chunksize=1)  # warm-up
        start = time.perf_counter()
        plain = [
            result
            for chunk_results in bare.starmap(busy_chunk, shards, chunksize=1)
            for result in chunk_results
        ]
        bare_seconds = time.perf_counter() - start

    policy = SupervisorPolicy()
    with CampaignPool(2, policy=policy) as supervised_pool:
        supervised_pool.run(busy_chunk, JOBS, payload=SPINS, chunk_size=CHUNK_SIZE)
        start = time.perf_counter()
        supervised = supervised_pool.run(
            busy_chunk, JOBS, payload=SPINS, chunk_size=CHUNK_SIZE
        )
        supervised_seconds = time.perf_counter() - start
        counters = supervised_pool.stats()

    return {
        "jobs": len(JOBS),
        "bare_seconds": bare_seconds,
        "supervised_seconds": supervised_seconds,
        "overhead": supervised_seconds / bare_seconds,
        "results_equal": plain == supervised,
        "quiet_counters": not any(
            counters[name]
            for name in ("retries", "timeouts", "worker_deaths", "quarantined")
        ),
    }


def test_supervised_healthy_overhead(benchmark):
    stats = run_once(benchmark, _healthy_overhead_stats)
    benchmark.extra_info.update(
        {k: (round(v, 4) if isinstance(v, float) else v) for k, v in stats.items()}
    )

    # Supervision must not change healthy results, and a healthy batch
    # must not trip any supervision machinery.
    assert stats["results_equal"]
    assert stats["quiet_counters"]
    # The committed baseline tracks the precise ratio; this in-run gate
    # only catches pathological regressions (timer noise on shared CI
    # runners makes a tight bound flaky).
    assert stats["overhead"] < 2.0


def _crash_recovery_stats():
    policy = SupervisorPolicy(max_retries=1, backoff=0.01, max_backoff=0.05)
    errors: list = []
    with CampaignPool(2, policy=policy) as pool:
        start = time.perf_counter()
        results = pool.run(
            busy_chunk, JOBS, payload=SPINS, chunk_size=CHUNK_SIZE
        )
        healthy_seconds = time.perf_counter() - start

        start = time.perf_counter()
        survivors = pool.run(
            _crashing_chunk,
            JOBS,
            payload=SPINS,
            chunk_size=CHUNK_SIZE,
            errors=errors,
        )
        recovery_seconds = time.perf_counter() - start
        counters = pool.stats()

    return {
        "healthy_seconds": healthy_seconds,
        "recovery_seconds": recovery_seconds,
        "complete": len(results) == len(JOBS),
        "survivors": len(survivors),
        "quarantined": [failure.item for failure in errors],
        "worker_deaths": counters["worker_deaths"],
        "respawns": counters["respawns"],
    }


def _crashing_chunk(chunk, payload):
    """busy_chunk with a crash wired to item 13 (workers only)."""
    FaultSpec("crash", repr(13), only_in_worker=False).maybe_fire(
        repr(13) if 13 in chunk else ""
    )
    return busy_chunk(chunk, payload)


def test_supervised_crash_recovery(benchmark):
    stats = run_once(benchmark, _crash_recovery_stats)
    benchmark.extra_info.update(
        {
            k: (round(v, 4) if isinstance(v, float) else v)
            for k, v in stats.items()
            if not isinstance(v, list)
        }
    )

    assert stats["complete"]
    # The crash kills a whole chunk attempt; retry + bisection must
    # isolate exactly the poison item and keep every other job.
    assert stats["quarantined"] == [repr(13)]
    assert stats["survivors"] == len(JOBS) - 1
    assert stats["worker_deaths"] >= 1
    assert stats["respawns"] >= 1
