"""Process-sharded execution of homogeneous campaign jobs.

Every campaign driver (fence repair, hardware testing, mole censuses,
diy family sweeps, BMC batches) boils down to the same shape: a list of
independent jobs, each producing one result, whose order must be
preserved.  This module is the one fan-out layer they all share:

* jobs are grouped into **chunks** so that scheduling and pickling
  overhead amortizes over several jobs and per-worker warm state
  (per-test simulation contexts — see :mod:`repro.campaign.jobs`) gets
  reused within and across chunks;
* the worker callable must be a picklable module-level function taking
  ``(chunk, payload)`` — a list of job specs plus one static payload
  shared by every chunk — and returning one result per job (or
  ``(results, extra)`` when a ``merge`` callback collects per-chunk
  side state, e.g. the fence campaign's cycle-signature memo);
* results come back in submission order, and the runner alone decides
  where a chunk runs: in worker processes, or in the calling process
  (one worker, or a single chunk without a warm pool).  Either way the
  very same worker runs over the very same chunks, so a batch driver
  has one path and its results do not depend on ``processes``;
* a batch with several workers, a pool or a caller's
  :class:`~repro.campaign.supervisor.SupervisorPolicy` runs on a
  :class:`~repro.campaign.supervisor.CampaignPool` — the caller's, or a
  temporary one closed after the batch — under that policy (the
  caller's, the pool's, or
  :data:`~repro.campaign.supervisor.DEFAULT_POLICY`): per-chunk
  deadlines, bounded retry with backoff, worker-death detection with
  automatic respawn, and poison-item bisection; a one-worker pool runs
  its chunks in the calling thread under the same policy.  A batch with
  one worker, no pool and no policy has nothing to supervise: its chunks
  run in-process and a job's exception reaches the caller as raised.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import telemetry as _telemetry
from repro.campaign import supervisor as _supervisor
from repro.campaign.supervisor import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_POLICY,
    CampaignPool,
    FailedItem,
    PoisonItemError,
    Processes,
    SupervisorPolicy,
    guarded_call,
    item_label,
    worker_count,
)
from repro.telemetry.metrics import Metrics


def _instrumented_chunk(
    worker: Callable[[List[Any], Any], Any],
    chunk: List[Any],
    payload: Any,
    submitted: float,
) -> Tuple[Any, Any]:
    """Run one chunk under a fresh telemetry registry and snapshot it.

    The cross-process aggregation seam: when the parent has telemetry
    enabled, every shard runs through this wrapper — in a worker process
    *or* in the calling process, so a batch produces the same per-chunk
    snapshots wherever its chunks run.  The fresh
    registry is installed for the duration of the chunk (shadowing any
    registry a forked worker inherited, which would otherwise accumulate
    invisibly in the child), the chunk's wall time and queue wait are
    recorded into it, and the snapshot rides home next to the results
    for the parent to merge in submission order.
    """
    started = time.time()
    registry = Metrics()
    previous = _telemetry._swap(registry)
    try:
        t0 = time.perf_counter()
        outcome = worker(chunk, payload)
        elapsed = time.perf_counter() - t0
    finally:
        _telemetry._swap(previous)
    registry.count("campaign.chunks")
    registry.count("campaign.jobs", len(chunk))
    registry.observe("campaign.chunk_seconds", elapsed)
    registry.observe("campaign.queue_wait_seconds", max(started - submitted, 0.0))
    return outcome, registry.snapshot()


def chunked(jobs: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Split *jobs* into order-preserving chunks of at most *chunk_size*."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [list(jobs[i : i + chunk_size]) for i in range(0, len(jobs), chunk_size)]


def _run_chunks(
    run_worker: Callable,
    make_args: Callable[[List[Any]], Tuple[Any, ...]],
    chunks: Sequence[List[Any]],
    policy: Optional[SupervisorPolicy],
    *,
    workers: int,
    pool: Optional[CampaignPool],
    phase: str,
) -> Tuple[List[Tuple[int, int, Any]], List[FailedItem]]:
    """Run *chunks* under supervision and apply the error policy.

    Returns ``(successes, failed_items)`` where successes are
    ``(chunk_index, offset, outcome)`` triples covering every surviving
    slice.  ``on_error="serial_retry"`` failures are re-run here, in
    the parent; whatever still fails is quarantined (or raised, under
    ``on_error="raise"``).  Without a policy the chunks run in-process
    unsupervised, and the first exception propagates as raised.
    """
    if policy is None:
        successes = [
            (index, 0, run_worker(*make_args(chunk)))
            for index, chunk in enumerate(chunks)
        ]
        return successes, []

    # A warm pool's workers make even a one-chunk batch *killable* (the
    # verdict service counts on this for one-test requests).  Without
    # one, workers are spawned only for a batch they can split; a
    # one-worker pool runs the chunks in this thread.
    executor = pool
    if executor is None:
        executor = CampaignPool(min(workers, len(chunks)), policy)
    try:
        successes, failures = executor.run_tasks(run_worker, make_args, chunks, policy)
    finally:
        if pool is None:
            executor.close()
    counters = executor.counters

    failed_items: List[FailedItem] = []
    for failure in failures:
        attempts = failure.attempts
        retry = failure.kind != "aborted" and not policy.expired()
        if policy.on_error == "serial_retry" and retry:
            # Graceful degradation: one in-process attempt in the
            # parent.  Worker-only faults (a chunk that OOMs the worker,
            # an environment-dependent crash) heal here, preserving the
            # sharded==serial guarantee for the retried item too.  An
            # aborted item or a blown batch deadline skips the retry —
            # re-running those serially is how an abort is undone and a
            # deadline gets pinned.
            _supervisor._bump(counters, "serial_retries")
            attempts += 1
            status, value = guarded_call(run_worker, make_args([failure.item]))
            if status == "ok":
                successes.append((failure.chunk_index, failure.offset, value))
                continue
            failure.kind = value.kind
            failure.error = value.error
            failure.traceback = value.traceback
        failed_items.append(
            FailedItem(
                item=item_label(failure.item),
                phase=phase,
                kind=failure.kind,
                error=failure.error,
                traceback=failure.traceback,
                attempts=attempts,
            )
        )

    if failed_items and policy.on_error == "raise":
        raise PoisonItemError(failed_items)
    if failed_items:
        _supervisor._bump(counters, "quarantined", len(failed_items))
    return successes, failed_items


def run_sharded(
    worker: Callable[[List[Any], Any], Any],
    jobs: Sequence[Any],
    *,
    payload: Any = None,
    processes: Processes = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    merge: Optional[Callable[[Any], None]] = None,
    pool: Optional[CampaignPool] = None,
    policy: Optional[SupervisorPolicy] = None,
    errors: Optional[List[FailedItem]] = None,
) -> List[Any]:
    """Run *worker* over *jobs* in chunks, results in submission order.

    ``worker(chunk, payload)`` must return a list with one result per
    job of the chunk — or, when ``merge`` is given, a ``(results,
    extra)`` pair; ``merge(extra)`` is then invoked in submission order
    as chunks complete (the fence campaign merges worker-local memo
    caches this way).  ``pool`` reuses an open :class:`CampaignPool`
    instead of spinning a fresh one.

    A batch runs on the supervised layer under ``policy`` (else the
    pool's, else :data:`DEFAULT_POLICY` when ``processes`` asks for
    several workers): chunk deadlines, bounded retry, worker respawn,
    and poison-item bisection.  Quarantined jobs are dropped from the
    results — in submission order, so the surviving results equal a
    clean run over the surviving jobs — and reported as
    :class:`~repro.campaign.supervisor.FailedItem` records appended to
    the caller's ``errors`` list.  Under :data:`DEFAULT_POLICY`, a job
    whose worker raises or dies makes the batch raise
    :class:`~repro.campaign.supervisor.PoisonItemError`, with one
    ``FailedItem`` per failing job carrying the worker's exception
    ``repr`` and traceback.  With one worker, no pool and no policy,
    the chunks run in-process unsupervised and a job's exception
    propagates unchanged.

    A payload that fails to pickle does not surface as a raw
    ``PicklingError`` from inside the pool machinery: the batch falls
    back to in-process serial execution with a
    :class:`~repro.campaign.supervisor.CampaignPicklingWarning` naming
    the offending object.

    When a telemetry registry is active in the calling process, every
    shard runs through :func:`_instrumented_chunk`: chunk workers
    snapshot a chunk-local registry (counters, spans, cache traffic,
    chunk wall time and queue wait) and the parent folds the snapshots
    back into its registry in submission order — so ``Session.stats()``
    sees one coherent tree across process boundaries, and sharded
    counter totals equal the serial run's.  With telemetry disabled
    this path is byte-identical to the uninstrumented one.
    """
    jobs = list(jobs)
    parent_registry = _telemetry._ACTIVE
    batch_t0 = time.perf_counter()
    workers = pool.workers if pool is not None else worker_count(processes)
    if policy is None and pool is not None:
        policy = pool.policy
    elif policy is None and workers > 1:
        policy = DEFAULT_POLICY
    chunks = chunked(jobs, chunk_size)

    if parent_registry is not None:
        submitted = time.time()
        run_worker: Callable = _instrumented_chunk

        def make_args(items: List[Any]) -> Tuple[Any, ...]:
            return (worker, items, payload, submitted)

    else:
        run_worker = worker

        def make_args(items: List[Any]) -> Tuple[Any, ...]:
            return (items, payload)

    successes, failed_items = _run_chunks(
        run_worker,
        make_args,
        chunks,
        policy,
        workers=workers,
        pool=pool,
        phase=getattr(worker, "__name__", str(worker)),
    )
    if errors is not None:
        errors.extend(failed_items)

    results: List[Any] = []
    busy_seconds = 0.0
    # (chunk index, offset) is submission order, whatever order the
    # slices completed in.
    for _, _, outcome in sorted(successes, key=lambda success: success[:2]):
        if parent_registry is not None:
            outcome, snapshot = outcome
            busy_seconds += snapshot.histograms.get(
                "campaign.chunk_seconds", {}
            ).get("total", 0.0)
            parent_registry.merge(snapshot)
        if merge is not None:
            chunk_results, extra = outcome
            merge(extra)
        else:
            chunk_results = outcome
        results.extend(chunk_results)
    if parent_registry is not None:
        batch_seconds = time.perf_counter() - batch_t0
        parent_registry.count("campaign.batches")
        parent_registry.observe("campaign.batch_seconds", batch_seconds)
        workers_used = max(1, min(workers, len(chunks)))
        if batch_seconds > 0:
            parent_registry.set_gauge(
                "campaign.worker_utilization",
                min(1.0, busy_seconds / (batch_seconds * workers_used)),
            )
    return results
