"""The verdict service: healthy-path overhead, latency and chaos.

Not a paper table: this benchmark gates the HTTP front door
(:mod:`repro.service`) layered over the session and campaign runtime.

* ``test_service_healthy_latency_and_overhead`` — N concurrent clients
  stream verdict requests through a live server; the recorded p50/p99
  request latency, throughput, and the overhead ratio against the same
  work submitted directly to a warm :class:`~repro.session.Session`
  are the numbers the committed baseline tracks.  The service buys
  admission control, deadlines, batching and degradation — on a
  healthy path that insurance must stay cheap.
* ``test_service_chaos_under_fire`` — the same concurrent load with a
  pool worker murdered and a poison test injected mid-flight: every
  well-formed request must still be answered (a verdict, a structured
  quarantine record, or an explicit shed), and the server must still
  be healthy afterwards.
"""

from __future__ import annotations

import threading
import time

from benchmarks.conftest import run_once
from repro.campaign import faults
from repro.campaign.faults import FaultSpec
from repro.litmus.registry import get_test
from repro.service import ServiceClient, ServiceConfig, ServiceThread, VerdictService
from repro.session import Session

CLIENTS = 4
REQUESTS_PER_CLIENT = 3
NAMES = ["sb", "mp", "lb"]


def _hammer(client, batch, per_client, latencies, responses, lock):
    for _ in range(per_client):
        start = time.perf_counter()
        response = client.verdict(batch, deadline=60.0)
        elapsed = time.perf_counter() - start
        with lock:
            latencies.append(elapsed)
            responses.append(response)


def _percentile(sorted_values, fraction):
    index = min(int(len(sorted_values) * fraction), len(sorted_values) - 1)
    return sorted_values[index]


def _healthy_stats():
    tests = [get_test(name) for name in NAMES]
    total_requests = CLIENTS * REQUESTS_PER_CLIENT

    # The yardstick: the same verdict batches submitted directly to a
    # warm session, serially (the service serializes batch execution
    # through one executor too — parallelism lives inside a batch).
    with Session(model="power", processes=2) as direct:
        direct.verdict(tests)  # warm the pool and the caches
        start = time.perf_counter()
        for _ in range(total_requests):
            direct.verdict(tests)
        direct_seconds = time.perf_counter() - start

    # Memo off: otherwise the warm-up request seeds the verdict cache
    # and the cache answers nearly every timed item at admission, so
    # the batching and overhead figures would measure the memo.
    config = ServiceConfig(port=0, batch_window=0.002, verdict_cache_size=0)
    session = Session(model="power", processes=2)
    latencies: list = []
    responses: list = []
    lock = threading.Lock()
    with ServiceThread(service=VerdictService(session=session, config=config)) as handle:
        client = ServiceClient(*handle.address)
        client.verdict(NAMES, deadline=60.0)  # warm-up request
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=_hammer,
                args=(client, NAMES, REQUESTS_PER_CLIENT, latencies, responses, lock),
            )
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service_seconds = time.perf_counter() - start
        counters = dict(handle.service.counters)

    latencies.sort()
    return {
        "clients": CLIENTS,
        "requests": total_requests,
        "all_ok": all(response.ok for response in responses)
        and len(responses) == total_requests,
        "p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "throughput_rps": total_requests / service_seconds,
        "direct_seconds": direct_seconds,
        "service_seconds": service_seconds,
        "overhead": service_seconds / direct_seconds,
        "batches": counters["batches"],
        "batched_items": counters["batched_items"],
        "shed": counters["shed"],
        "connections": counters["connections"],
        "keepalive_reuses": counters["keepalive_reuses"],
    }


def test_service_healthy_latency_and_overhead(benchmark):
    stats = run_once(benchmark, _healthy_stats)
    benchmark.extra_info.update(
        {k: (round(v, 4) if isinstance(v, float) else v) for k, v in stats.items()}
    )
    assert stats["all_ok"], "every healthy request must get a 200"
    assert stats["shed"] == 0, "a healthy load must not be shed"
    # Coalescing happened: concurrent requests shared batches.
    assert stats["batches"] <= stats["batched_items"]
    # Keep-alive happened: far fewer TCP connections than requests
    # (one per hammering thread, not one per verdict).
    assert stats["connections"] < stats["requests"]
    assert stats["keepalive_reuses"] >= stats["requests"] - stats["connections"]
    # The committed baseline tracks the precise ratio; the in-run gate
    # only catches pathological regressions (HTTP + scheduling on a
    # shared single-core CI runner is noisy).
    assert stats["overhead"] < 25.0


def _chaos_stats():
    # Memo off: memoized tests never reach the pool, so the murdered
    # worker and the poisoned test would go unseen.
    config = ServiceConfig(
        port=0, max_queue=64, batch_window=0.01, verdict_cache_size=0
    )
    session = Session(
        model="power", processes=2, chunk_timeout=20.0, max_retries=1, retry_backoff=0.01
    )
    responses: list = []
    lock = threading.Lock()
    latencies: list = []
    try:
        with ServiceThread(
            service=VerdictService(session=session, config=config)
        ) as handle:
            client = ServiceClient(*handle.address)
            client.verdict(NAMES, deadline=60.0)  # warm the pool: a worker to kill

            threads = [
                threading.Thread(
                    target=_hammer,
                    args=(client, batch, REQUESTS_PER_CLIENT, latencies, responses, lock),
                )
                for batch in (["sb", "mp"], ["lb", "sb"], ["mp", "lb"], ["wrc"])
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()

            time.sleep(0.02)  # mid-load: murder a worker, poison a test
            supervised = session._pool._supervised
            if supervised is not None and supervised._members:
                supervised._members[0].process.terminate()
            faults.install(FaultSpec("raise", "lb"))

            for thread in threads:
                thread.join(timeout=120.0)
            # A post-kill probe: even if the load raced past the murder,
            # at least one batch must cross the pool afterwards so the
            # supervisor observes the corpse and respawns.
            with lock:
                responses.append(client.verdict(NAMES, deadline=60.0))
            chaos_seconds = time.perf_counter() - start
            healthy_after = client.healthz()["status"] == "ok"
            stats_tree = client.stats()
    finally:
        faults.uninstall()

    outcome_counts: dict = {}
    for response in responses:
        if response.status != 200:
            outcome_counts[f"http_{response.status}"] = (
                outcome_counts.get(f"http_{response.status}", 0) + 1
            )
            continue
        for line in response.results:
            outcome_counts[line["status"]] = outcome_counts.get(line["status"], 0) + 1
    supervisor = stats_tree["session"]["supervisor"]["counters"]
    expected = 4 * REQUESTS_PER_CLIENT + 1  # the loaders plus the probe
    return {
        "requests": len(responses),
        "expected_requests": expected,
        "all_answered": len(responses) == expected
        and all(response.status in (200, 429, 503) for response in responses),
        "healthy_after": healthy_after,
        "chaos_seconds": chaos_seconds,
        "worker_deaths": supervisor["worker_deaths"],
        "quarantined": supervisor["quarantined"],
        **{f"outcome_{key}": value for key, value in sorted(outcome_counts.items())},
    }


def test_service_chaos_under_fire(benchmark):
    stats = run_once(benchmark, _chaos_stats)
    benchmark.extra_info.update(
        {k: (round(v, 4) if isinstance(v, float) else v) for k, v in stats.items()}
    )
    assert stats["all_answered"], "chaos must not eat a single request"
    assert stats["healthy_after"], "the service must survive the drill"
    assert stats["worker_deaths"] >= 1, "the murdered worker must be seen"
