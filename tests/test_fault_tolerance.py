"""The fault-tolerant campaign runtime, exercised by real faults.

Every guarantee of :mod:`repro.campaign.supervisor` is pinned against a
deterministically injected failure (:mod:`repro.campaign.faults`): a
worker killed mid-chunk (``os._exit``, the OOM-kill shape), a chunk
hanging past its deadline, an exception that cannot cross a process
boundary, and a payload that cannot even be submitted.  The container
running CI may expose a single core, so every pooled test sizes its
pool explicitly with ``processes=2`` — worker counts are never
inferred from the machine.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings

import pytest

from repro import Session
from repro.campaign import (
    CampaignPicklingWarning,
    CampaignPool,
    FailedItem,
    PoisonItemError,
    SupervisorPolicy,
    run_sharded,
)
from repro.campaign import faults
from repro.campaign.faults import FaultSpec, echo_chunk
from repro.campaign.supervisor import ErrorEnvelope, new_counters
from repro.diy.families import sweep_family, two_thread_family

JOBS = list(range(17))
SERIAL = [item * 2 for item in JOBS]

#: Fast-converging policy for the injected-fault tests: one retry and
#: millisecond backoff keep the whole file quick while still exercising
#: the retry/backoff/bisection machinery.
FAST = dict(max_retries=1, backoff=0.01, max_backoff=0.05)


@pytest.fixture(autouse=True)
def no_leftover_fault_plan():
    yield
    faults.uninstall()


def quarantine_run(spec, *, jobs=JOBS, chunk_size=4, **policy_kwargs):
    """Run echo_chunk over *jobs* with *spec* riding the payload."""
    errors: list = []
    policy = SupervisorPolicy(on_error="quarantine", **{**FAST, **policy_kwargs})
    results = run_sharded(
        echo_chunk,
        jobs,
        payload=spec,
        processes=2,
        chunk_size=chunk_size,
        policy=policy,
        errors=errors,
    )
    return results, errors


# -- policy and report types ----------------------------------------------------


def test_policy_validates_its_fields():
    with pytest.raises(ValueError):
        SupervisorPolicy(on_error="explode")
    with pytest.raises(ValueError):
        SupervisorPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorPolicy(chunk_timeout=0)
    assert SupervisorPolicy().as_dict()["on_error"] == "quarantine"


def test_policy_backoff_grows_and_saturates():
    policy = SupervisorPolicy(backoff=0.1, backoff_factor=2.0, max_backoff=0.3)
    delays = [policy.backoff_seconds(attempt) for attempt in (1, 2, 3, 4)]
    assert delays == [0.1, 0.2, 0.3, 0.3]


def test_failed_item_is_a_structured_report():
    envelope = ErrorEnvelope.from_exception(ValueError("boom"))
    failed = FailedItem(
        item="sb",
        phase="verdict_chunk",
        kind=envelope.kind,
        error=envelope.error,
        traceback=envelope.traceback,
        attempts=3,
    )
    tree = failed.to_dict()
    assert tree["type"] == "failed-item"
    assert tree["item"] == "sb"
    assert tree["kind"] == "exception"
    assert "boom" in tree["error"]
    assert tree["attempts"] == 3
    assert "sb" in failed.describe()
    assert failed.to_json()


def test_unpicklable_exceptions_flatten_into_envelopes():
    import pickle

    try:
        raise faults.UnpicklableFault("sb")
    except faults.UnpicklableFault as exc:
        with pytest.raises(Exception):
            pickle.dumps(exc)
        envelope = ErrorEnvelope.from_exception(exc)
    pickle.dumps(envelope)  # strings only — always crosses the boundary
    assert "sb" in envelope.error


# -- the supervised happy path ---------------------------------------------------


def test_supervised_healthy_batch_equals_serial():
    results, errors = quarantine_run(None)
    assert results == SERIAL
    assert errors == []


def _counting_chunk(chunk, payload):
    """Module-level (hence picklable) worker returning (results, extra)."""
    return [item * 2 for item in chunk], len(chunk)


def test_supervised_merge_and_order_with_uneven_chunks():
    merged: list = []

    results = run_sharded(
        _counting_chunk,
        JOBS,
        processes=2,
        chunk_size=3,
        merge=merged.append,
        policy=SupervisorPolicy(**FAST),
    )
    assert results == SERIAL
    assert sum(merged) == len(JOBS)


# -- injected faults, one per failure mode ---------------------------------------


def test_worker_crash_quarantines_exactly_the_poison_item():
    counters = new_counters()
    errors: list = []
    with CampaignPool(2, policy=SupervisorPolicy(**FAST)) as pool:
        results = run_sharded(
            echo_chunk,
            JOBS,
            payload=FaultSpec("crash", repr(7)),
            chunk_size=4,
            pool=pool,
            errors=errors,
        )
        counters = pool.stats()
    assert results == [item * 2 for item in JOBS if item != 7]
    assert [failure.item for failure in errors] == [repr(7)]
    assert errors[0].kind == "worker-death"
    assert errors[0].attempts == 2  # max_retries=1 -> two attempts
    assert counters["worker_deaths"] >= 1
    assert counters["respawns"] >= 1
    assert counters["bisections"] >= 1
    assert counters["quarantined"] == 1


def test_hung_chunk_is_killed_at_the_deadline():
    results, errors = quarantine_run(
        FaultSpec("hang", repr(11), hang_seconds=60.0),
        chunk_timeout=0.4,
        max_retries=0,
    )
    assert results == [item * 2 for item in JOBS if item != 11]
    assert [failure.item for failure in errors] == [repr(11)]
    assert errors[0].kind == "timeout"


def test_unpicklable_worker_exception_is_contained():
    results, errors = quarantine_run(FaultSpec("raise_unpicklable", repr(3)))
    assert results == [item * 2 for item in JOBS if item != 3]
    assert [failure.item for failure in errors] == [repr(3)]
    assert "unpicklable fault injected" in errors[0].error


def test_plain_worker_exception_keeps_its_traceback():
    results, errors = quarantine_run(FaultSpec("raise", repr(5)))
    assert results == [item * 2 for item in JOBS if item != 5]
    assert errors[0].kind == "exception"
    assert "FaultInjected" in errors[0].traceback


def test_raise_policy_names_the_poison_item():
    with pytest.raises(PoisonItemError) as excinfo:
        run_sharded(
            echo_chunk,
            JOBS,
            payload=FaultSpec("raise", repr(9)),
            processes=2,
            chunk_size=4,
            policy=SupervisorPolicy(on_error="raise", **FAST),
        )
    assert repr(9) in str(excinfo.value)
    assert [failure.item for failure in excinfo.value.failures] == [repr(9)]


def _within_watchdog(batch, timeout=20.0):
    """Run *batch* in a daemon thread; its exception, or None.

    A batch that blocks fails the test at *timeout* instead of hanging
    the suite (the worker-crash shape that wedges a bare process pool).
    """
    outcome: dict = {}

    def target():
        try:
            batch()
        except Exception as exc:  # noqa: BLE001 — handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"batch still blocked after {timeout:g}s"
    return outcome.get("error")


@pytest.mark.parametrize(
    "kind, failure_kind", (("crash", "worker-death"), ("raise", "exception"))
)
def test_policyless_batches_raise_instead_of_hanging(kind, failure_kind):
    # No policy anywhere: the default one has no retry and no deadline,
    # yet a crashed or raising worker still isolates its one item.
    spec = FaultSpec(kind, repr(7))

    def with_run_sharded():
        run_sharded(echo_chunk, JOBS, payload=spec, processes=2, chunk_size=4)

    def with_campaign_pool():
        with CampaignPool(2) as pool:
            pool.run(echo_chunk, JOBS, payload=spec, chunk_size=4)

    for batch in (with_run_sharded, with_campaign_pool):
        error = _within_watchdog(batch)
        assert isinstance(error, PoisonItemError), repr(error)
        assert [failure.item for failure in error.failures] == [repr(7)]
        assert error.failures[0].kind == failure_kind
        if kind == "raise":
            assert "FaultInjected" in error.failures[0].error
            assert "FaultInjected" in error.failures[0].traceback


def test_serial_retry_heals_worker_only_faults():
    # only_in_worker=True (the default) records this process's pid, so
    # the in-process retry of the poison item succeeds.
    errors: list = []
    results = run_sharded(
        echo_chunk,
        JOBS,
        payload=FaultSpec("crash", repr(7)),
        processes=2,
        chunk_size=4,
        policy=SupervisorPolicy(on_error="serial_retry", **FAST),
        errors=errors,
    )
    assert results == SERIAL
    assert errors == []


def test_two_poison_items_both_bisected_out():
    # One spec can only name one target; the second fault rides the
    # global plan, which echo_chunk's trip() hook consults per item.
    faults.install(FaultSpec("raise", repr(2)))
    errors: list = []
    results = run_sharded(
        echo_chunk,
        JOBS,
        payload=FaultSpec("raise", repr(13)),
        processes=2,
        chunk_size=4,
        policy=SupervisorPolicy(**FAST),
        errors=errors,
    )
    assert results == [item * 2 for item in JOBS if item not in (2, 13)]
    assert sorted(failure.item for failure in errors) == [repr(13), repr(2)]


def test_serial_fallback_applies_the_same_policy():
    # workers<=1 degrades to in-process supervision: exceptions are
    # still captured, bisected and quarantined (crashes need real
    # worker processes and are out of scope serially).
    spec = FaultSpec("raise", repr(5), only_in_worker=False)
    errors: list = []
    results = run_sharded(
        echo_chunk,
        JOBS,
        payload=spec,
        processes=1,
        chunk_size=4,
        policy=SupervisorPolicy(**FAST),
        errors=errors,
    )
    assert results == [item * 2 for item in JOBS if item != 5]
    assert [failure.item for failure in errors] == [repr(5)]


def test_in_process_and_pooled_batches_share_one_policy():
    # One executor: a one-worker pool runs its chunks in this thread
    # under the very retry, backoff and bisection a two-worker pool
    # applies, so the same raising item fails alike on both.
    spec = FaultSpec("raise", repr(5), only_in_worker=False)
    runs = []
    for processes in (1, 2):
        with CampaignPool(processes, policy=SupervisorPolicy(**FAST)) as pool:
            errors: list = []
            results = pool.run(
                echo_chunk, JOBS, payload=spec, chunk_size=4, errors=errors
            )
            failed = [(error.item, error.kind, error.attempts) for error in errors]
            counted = [pool.counters[name] for name in ("retries", "bisections")]
            runs.append((results, failed, counted, pool.counters["quarantined"]))
    in_process, pooled = runs
    assert in_process == pooled
    assert pooled[1:] == ([(repr(5), "exception", 2)], [3, 2], 1)


# -- the pool heals and shuts down cleanly ---------------------------------------


def test_pool_self_heals_across_batches():
    with CampaignPool(2, policy=SupervisorPolicy(**FAST)) as pool:
        errors: list = []
        first = pool.run(
            echo_chunk,
            JOBS,
            payload=FaultSpec("crash", repr(4)),
            chunk_size=4,
            errors=errors,
        )
        assert len(errors) == 1
        assert first == [item * 2 for item in JOBS if item != 4]
        # The crashed workers were respawned: a clean follow-up batch
        # on the same pool is complete.
        second = pool.run(echo_chunk, JOBS, chunk_size=4)
        assert second == SERIAL
        stats = pool.stats()
        assert stats["respawns"] >= 1
        assert stats["quarantined"] == 1


def test_worker_killed_while_idle_is_replaced_and_counted():
    # A worker that dies *between* batches leaves no in-flight task to
    # fail: the supervise loop must still notice the corpse, count the
    # death (it feeds the service circuit breaker) and respawn, or the
    # pool silently loses capacity forever.
    with CampaignPool(2, policy=SupervisorPolicy(**FAST)) as pool:
        assert pool.run(echo_chunk, JOBS, chunk_size=4) == SERIAL
        victim = pool._members[0]
        victim.process.terminate()
        victim.process.join(5.0)
        assert pool.run(echo_chunk, JOBS, chunk_size=4) == SERIAL
        stats = pool.stats()
        assert stats["worker_deaths"] == 1
        assert stats["respawns"] == 1
        assert pool.alive == 2


def test_close_leaves_no_worker_processes_behind():
    pool = CampaignPool(2, policy=SupervisorPolicy(**FAST))
    assert pool.run(echo_chunk, JOBS, chunk_size=4) == SERIAL
    pool.close()
    leftovers = [
        process
        for process in multiprocessing.active_children()
        if process.name == "campaign-supervised-worker"
    ]
    assert leftovers == []


# -- unpicklable payloads fall back to serial ------------------------------------


@pytest.mark.parametrize(
    "policy",
    (None, SupervisorPolicy(on_error="quarantine", **FAST)),
    ids=("default", "quarantine"),
)
def test_unpicklable_payload_falls_back_serially(policy):
    errors: list = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = run_sharded(
            echo_chunk,
            JOBS,
            payload=lambda: None,
            processes=2,
            chunk_size=4,
            policy=policy,
            errors=errors,
        )
    assert results == SERIAL
    assert errors == []
    pickling = [w for w in caught if issubclass(w.category, CampaignPicklingWarning)]
    assert len(pickling) == 1
    assert "lambda" in str(pickling[0].message)


def test_pool_survives_an_unpicklable_payload():
    with CampaignPool(2) as pool:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CampaignPicklingWarning)
            assert pool.run(echo_chunk, JOBS, payload=lambda: None) == SERIAL
        # The pool is still usable for a picklable follow-up batch.
        assert pool.run(echo_chunk, JOBS, chunk_size=4) == SERIAL


# -- the session front door ------------------------------------------------------


@pytest.fixture(scope="module")
def family():
    # 12 tests > the default chunk size of 8, so session sweeps span
    # several chunks and actually exercise the pooled supervisor (a
    # single-chunk batch degrades to the in-process serial path, where
    # worker-only faults deliberately never fire).
    return two_thread_family("power", limit=12)


@pytest.fixture(scope="module")
def serial_sweep(family):
    with Session(model="power") as session:
        return session.sweep(family)


def test_session_sweep_quarantines_a_crashed_test(family, serial_sweep):
    victim = family[3].name
    faults.install(FaultSpec("crash", victim))
    with Session(model="power", processes=2, max_retries=1, retry_backoff=0.01) as session:
        swept = session.sweep(family)
        assert [failure.item for failure in swept.errors] == [victim]
        assert swept.errors[0].phase == "verdict_chunk"
        survivors = [v for v in serial_sweep.verdicts if v[0] != victim]
        assert list(swept.verdicts) == survivors
        assert session.last_errors == list(swept.errors)
        supervisor = session.stats()["supervisor"]
        assert supervisor["counters"]["worker_deaths"] >= 1
        assert supervisor["counters"]["quarantined"] == 1
        assert supervisor["last_errors"] == 1
        assert supervisor["policy"]["on_error"] == "quarantine"
    faults.uninstall()


def test_session_serial_retry_heals_and_counts(family, serial_sweep):
    faults.install(FaultSpec("crash", family[2].name))
    with Session(
        model="power",
        processes=2,
        on_error="serial_retry",
        max_retries=0,
        retry_backoff=0.01,
    ) as session:
        swept = session.sweep(family)
        assert swept.verdicts == serial_sweep.verdicts
        assert swept.errors == ()
        assert session.stats()["supervisor"]["counters"]["serial_retries"] >= 1
    faults.uninstall()


def test_session_chunk_timeout_reaches_the_policy():
    session = Session(model="power", processes=2, chunk_timeout=1.5)
    assert session.policy.chunk_timeout == 1.5
    assert session.stats()["supervisor"]["policy"]["chunk_timeout"] == 1.5
    session.close()


def test_session_counters_survive_pool_restarts(family):
    faults.install(FaultSpec("raise", family[1].name))
    with Session(model="power", processes=2, max_retries=0, retry_backoff=0.01) as session:
        session.sweep(family)
        session.close()  # the pool goes, the session's counters stay
        faults.uninstall()
        session.sweep(family)  # clean run on a fresh lazily-started pool
        counters = session.stats()["supervisor"]["counters"]
        assert counters["quarantined"] == 1
        # A restarted pool counts into the same dict.
        assert session._pool.counters is session.supervisor_counters
        faults.install(FaultSpec("raise", family[1].name))
        session.close()
        session.sweep(family)
        assert session.stats()["supervisor"]["counters"]["quarantined"] == 2


def test_driver_level_errors_ride_the_report_types(family, serial_sweep):
    errors: list = []
    faults.install(FaultSpec("raise", family[0].name))
    swept = sweep_family(
        family,
        "power",
        processes=2,
        policy=SupervisorPolicy(**FAST),
        errors=errors,
    )
    faults.uninstall()
    assert list(swept.errors) == errors
    assert len(errors) == 1
    tree = swept.to_dict()
    assert tree["errors"][0]["item"] == family[0].name
    assert "quarantined" in swept.describe()


# -- deadline budgets, aborts and bounded error rings (service substrate) --------


def test_with_budget_bounds_chunk_timeout_and_sets_a_deadline():
    import time

    policy = SupervisorPolicy(chunk_timeout=10.0, **FAST)
    assert policy.deadline is None and not policy.expired()
    bounded = policy.with_budget(0.5)
    assert bounded.chunk_timeout == 0.5
    assert bounded.deadline is not None
    assert not bounded.expired(now=bounded.deadline - 0.1)
    assert bounded.expired(now=bounded.deadline)
    assert bounded.as_dict()["deadline"] == bounded.deadline
    # An already tighter chunk_timeout survives a looser budget.
    tight = SupervisorPolicy(chunk_timeout=0.1, **FAST).with_budget(5.0)
    assert tight.chunk_timeout == 0.1
    # A policy without chunk_timeout adopts the budget as one.
    adopted = SupervisorPolicy(**FAST).with_budget(2.0)
    assert adopted.chunk_timeout == 2.0
    # The floor keeps a non-positive budget from crashing validation.
    floored = SupervisorPolicy(**FAST).with_budget(-3.0)
    assert floored.chunk_timeout == 0.005
    assert time.monotonic() + 1.0 > floored.deadline


def test_exhausted_budget_fails_serial_batch_before_dispatch():
    import time

    errors: list = []
    policy = SupervisorPolicy(on_error="quarantine", **FAST).with_budget(0.005)
    time.sleep(0.02)
    results = run_sharded(
        echo_chunk, JOBS, processes=1, chunk_size=4, policy=policy, errors=errors
    )
    assert results == []
    assert len(errors) == len(JOBS)
    assert {failure.kind for failure in errors} == {"timeout"}
    assert all("deadline exhausted" in failure.error for failure in errors)


def test_exhausted_budget_fails_pooled_batch_before_dispatch():
    import time

    errors: list = []
    policy = SupervisorPolicy(on_error="quarantine", **FAST).with_budget(0.005)
    time.sleep(0.02)
    with CampaignPool(2) as pool:
        results = run_sharded(
            echo_chunk, JOBS, chunk_size=4, pool=pool, policy=policy, errors=errors
        )
        assert results == []
        assert len(errors) == len(JOBS)
        assert {failure.kind for failure in errors} == {"timeout"}
        assert pool.counters["deadline_exhausted"] == len(JOBS)


def test_abort_fails_a_hung_batch_and_returns():
    import threading
    import time

    spec = FaultSpec("hang", repr(5), only_in_worker=False, hang_seconds=60.0)
    policy = SupervisorPolicy(on_error="quarantine", chunk_timeout=30.0, **FAST)
    outcome: dict = {}
    errors: list = []
    with CampaignPool(2) as pool:

        def run():
            outcome["results"] = run_sharded(
                echo_chunk,
                JOBS,
                payload=spec,
                chunk_size=4,
                pool=pool,
                policy=policy,
                errors=errors,
            )

        thread = threading.Thread(target=run)
        started = time.monotonic()
        thread.start()
        time.sleep(0.5)  # let the hung chunk get dispatched
        pool.abort()
        thread.join(timeout=15.0)
        assert not thread.is_alive(), "abort must unblock the batch"
        assert time.monotonic() - started < 15.0
        aborted = [failure for failure in errors if failure.kind == "aborted"]
        assert aborted, "the hung chunk's items must be failed as aborted"
        assert repr(5) in {failure.item for failure in aborted}
        assert pool.counters["aborted"] >= len(aborted)
        # Every item is accounted for: a doubled result or a failure.
        answered = len(outcome["results"]) + len(errors)
        assert answered == len(JOBS)


def test_abort_reaches_an_in_process_batch():
    # A one-worker pool runs in the calling thread: abort() cannot cut
    # the running chunk short, but no chunk starts after it.
    import time

    spec = FaultSpec("hang", repr(5), only_in_worker=False, hang_seconds=1.0)
    outcome: dict = {}
    errors: list = []
    with CampaignPool(1) as pool:

        def run():
            outcome["results"] = pool.run(
                echo_chunk,
                JOBS,
                payload=spec,
                chunk_size=4,
                policy=SupervisorPolicy(**FAST),
                errors=errors,
            )

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.3)  # inside the hung second chunk
        pool.abort()
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert outcome["results"] == [item * 2 for item in range(8)]
        assert [failure.item for failure in errors] == [repr(i) for i in range(8, 17)]
        assert {failure.kind for failure in errors} == {"aborted"}
        assert pool.counters["aborted"] == 9


@pytest.mark.parametrize("processes", (1, 2))
def test_an_abort_made_between_batches_aborts_the_next_one(processes):
    # The request waits on the pool for a batch to act on it; that
    # batch fails whole and the one after it runs clean.
    with CampaignPool(processes) as pool:
        pool.abort()
        errors: list = []
        results = pool.run(
            echo_chunk,
            JOBS,
            chunk_size=4,
            policy=SupervisorPolicy(**FAST),
            errors=errors,
        )
        assert results == []
        assert [failure.kind for failure in errors] == ["aborted"] * len(JOBS)
        assert pool.counters["aborted"] == len(JOBS)
        assert pool.run(echo_chunk, JOBS, chunk_size=4) == SERIAL


@pytest.mark.parametrize("processes", (1, 2))
def test_serial_retry_leaves_aborted_items_aborted(processes):
    policy = SupervisorPolicy(on_error="serial_retry", **FAST)
    with CampaignPool(processes, policy=policy) as pool:
        pool.abort()
        errors: list = []
        assert pool.run(echo_chunk, JOBS, chunk_size=4, errors=errors) == []
        assert [failure.kind for failure in errors] == ["aborted"] * len(JOBS)
        assert pool.counters["serial_retries"] == 0


@pytest.mark.parametrize("processes", (1, 2))
def test_close_drops_a_pending_abort_and_keeps_the_counters(processes):
    with CampaignPool(processes, policy=SupervisorPolicy(**FAST)) as pool:
        spec = FaultSpec("raise", repr(5), only_in_worker=False)
        pool.run(echo_chunk, JOBS, payload=spec, chunk_size=4)
        pool.abort()
        pool.close()
        # The pool starts again, unaborted, and counts on.
        assert pool.run(echo_chunk, JOBS, payload=spec, chunk_size=4) == [
            item * 2 for item in JOBS if item != 5
        ]
        assert pool.counters["quarantined"] == 2
        assert pool.counters["aborted"] == 0


def test_pool_close_is_idempotent_with_a_dead_worker():
    pool = CampaignPool(2)
    policy = SupervisorPolicy(on_error="quarantine", **FAST)
    assert run_sharded(echo_chunk, JOBS, chunk_size=4, pool=pool, policy=policy) == SERIAL
    assert pool._members
    pool._members[0].process.terminate()
    pool._members[0].process.join(5.0)
    pool.close(grace=0.5)
    pool.close(grace=0.5)  # double close: a no-op, not an error
    assert pool._members == [] and pool.alive == 0


def test_pool_concurrent_close_tears_down_exactly_once():
    import threading

    pool = CampaignPool(2)
    policy = SupervisorPolicy(on_error="quarantine", **FAST)
    run_sharded(echo_chunk, JOBS, chunk_size=4, pool=pool, policy=policy)
    threads = [
        threading.Thread(target=lambda: pool.close(grace=0.5)) for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert pool._members == [] and pool.alive == 0


def test_error_ring_bounds_records_and_counts_drops():
    from repro.campaign import ErrorRing

    ring = ErrorRing(3)
    assert not ring and ring.capacity == 3
    ring.extend(["a", "b", "c"])
    assert list(ring) == ["a", "b", "c"] and ring.dropped == 0
    ring.append("d")
    assert list(ring) == ["b", "c", "d"]
    assert ring.dropped == 1
    assert ring == ["b", "c", "d"]
    assert ring[0] == "b"
    assert ring[1:] == ["c", "d"]  # slicing: repair drivers take tails
    ring.clear()
    assert len(ring) == 0 and list(ring) == []
    assert ring.dropped == 1, "the drop counter is lifetime, not per batch"
