"""The resilient verdict service, end to end over real sockets.

Every test runs a real asyncio server (:class:`ServiceThread`) and a
real stdlib HTTP client against it — admission control, deadlines,
micro-batching, the circuit breaker, graceful drain and the chaos
drill are all exercised through the wire, not by poking internals.
The container running CI may expose a single core, so every pooled
session sizes its pool explicitly with ``processes=2``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import faults
from repro.campaign.faults import FaultSpec
from repro.compare.corpus import CorpusBudget, comparison_corpus
from repro.litmus.registry import get_test
from repro.service import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    VerdictService,
)
from repro.service.http import HttpError, Request, response_bytes
from repro.session import Session

SB_X86 = """
X86 sb
{ x=0; y=0; }
 P0          | P1          ;
 mov r1,$1   | mov r1,$1   ;
 mov [x],r1  | mov [y],r1  ;
 mov r2,[y]  | mov r2,[x]  ;
exists (0:r2=0 /\\ 1:r2=0)
"""

#: Parses, but its load reads an address register holding a number.
UNRUNNABLE = """
PPC unrunnable
{ 0:r2=1; }
 P0           ;
 lwz r1,0(r2) ;
exists (0:r1=0)
"""

#: Forty loads over {0, 1}: parses and runs, but has 2**40 thread paths.
EXPONENTIAL = (
    "PPC exponential\n{ x=1; 0:r2=x; }\n P0 ;\n"
    + " lwz r1,0(r2) ;\n" * 40
    + "exists (0:r1=0)\n"
)

#: A JSON body nesting deeper than ``json.loads`` can recurse.
DEEPLY_NESTED = b"[" * 100_000 + b"]" * 100_000

#: Fast-converging supervision for the injected-fault tests.
FAST_SESSION = dict(max_retries=1, retry_backoff=0.01)


@pytest.fixture(autouse=True)
def no_leftover_fault_plan():
    yield
    faults.uninstall()


def make_service(*, processes=2, config=None, **session_kwargs):
    session = Session(model="power", processes=processes, **{**FAST_SESSION, **session_kwargs})
    return ServiceThread(
        service=VerdictService(
            session=session, config=config or ServiceConfig(port=0)
        )
    )


# -- healthy path ----------------------------------------------------------------


def test_verdict_roundtrip_matches_direct_session():
    names = ["sb", "mp", "lb"]
    with Session(model="power") as direct:
        expected = {name: direct.verdict(get_test(name)) for name in names}
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        response = client.verdict(names, model="power", deadline=60.0)
        assert response.ok
        assert [line["test"] for line in response.results] == names
        for line in response.results:
            assert line["status"] == "ok"
            assert line["verdict"] == expected[line["test"]]


def test_repair_roundtrip_returns_full_reports():
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        response = client.repair(["sb"], model="power", deadline=120.0)
        assert response.ok
        (line,) = response.results
        assert line["test"] == "sb"
        assert line["status"] == "ok"
        report = line["report"]
        assert report["test"] == "sb"
        assert report["after_verdict"] == "Forbid"
        assert report["success"] is True


def test_source_submissions_are_parsed_and_answered():
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        response = client.verdict([{"source": SB_X86}], model="tso", deadline=60.0)
        assert response.ok
        (line,) = response.results
        assert line["test"] == "sb"
        assert line["status"] == "ok"
        bad = client.verdict([{"source": "not litmus at all"}])
        assert bad.status == 400
        assert "unparseable" in bad.error
        # Parses, but no thread path can run: answered 400 before
        # admission, never retried, quarantined or counted by the breaker.
        for submit in (client.verdict, client.verdict, client.repair, client.verdict):
            unrunnable = submit([{"source": UNRUNNABLE}], deadline=60.0)
            assert unrunnable.status == 400
            assert "cannot run" in unrunnable.error
        stats = client.stats()
        supervisor = stats["session"]["supervisor"]["counters"]
        assert supervisor["retries"] == supervisor["quarantined"] == 0
        assert stats["service"]["breaker"]["state"] == CLOSED


def test_exponential_source_is_answered_within_its_deadline_and_drains():
    config = ServiceConfig(port=0, batch_window=0.0, drain_window=2.0)
    handle = make_service(config=config).start()
    service = handle.service
    client = ServiceClient(*handle.address, timeout=30.0)
    started = time.monotonic()
    # Admission's dry run stops at its step budget; the supervised
    # worker then runs out of the request's deadline.
    response = client.verdict([{"source": EXPONENTIAL}], deadline=2.0)
    assert time.monotonic() - started < 10.0
    assert response.ok
    (line,) = response.results
    assert line["status"] in ("timeout", "quarantined")
    assert client.verdict(["sb"], deadline=30.0).ok
    handle.request_drain()
    handle.join(30.0)
    assert not handle._thread.is_alive(), "the service must still drain"
    assert service.session._pool is None


def test_streaming_client_sees_lines_in_request_order():
    names = ["sb", "mp"]
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        seen = [line["test"] for line in client.stream("/verdict", names, deadline=60.0)]
        assert seen == names


def test_concurrent_requests_are_micro_batched():
    config = ServiceConfig(port=0, batch_window=0.25, max_batch=16)
    names = ["sb", "mp", "lb"]
    with make_service(config=config) as handle:
        client = ServiceClient(*handle.address)
        responses = []
        threads = [
            threading.Thread(
                target=lambda: responses.append(
                    client.verdict(names, deadline=60.0)
                )
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(response.ok for response in responses)
        counters = client.stats()["service"]["counters"]
        assert counters["batched_items"] == 2 * len(names)
        # Coalescing happened: fewer batches than items.
        assert counters["batches"] < counters["batched_items"]


# -- keep-alive ------------------------------------------------------------------


def test_keepalive_serves_sequential_requests_on_one_connection():
    with make_service(processes=None) as handle:
        client = ServiceClient(*handle.address)
        for _ in range(3):
            assert client.verdict(["sb"], deadline=60.0).ok
        service = client.stats()["service"]
        # All four requests (three verdicts + the stats probe) rode the
        # same socket: one TCP handshake, three reuses.
        assert service["counters"]["connections"] == 1
        assert service["counters"]["keepalive_reuses"] == 3
        assert service["open_connections"] == 1


def test_keepalive_request_cap_recycles_the_connection():
    config = ServiceConfig(port=0, keepalive_max_requests=2)
    with make_service(processes=None, config=config) as handle:
        client = ServiceClient(*handle.address)
        for _ in range(4):
            assert client.healthz()["status"] == "ok"
        # Requests 1-2 ride connection one (closed at the cap), 3-4 ride
        # connection two, and the stats probe opens connection three.
        assert client.stats()["service"]["counters"]["connections"] == 3


def test_keepalive_idle_timeout_closes_and_the_client_reconnects():
    config = ServiceConfig(port=0, keepalive_idle_timeout=0.2)
    with make_service(processes=None, config=config) as handle:
        client = ServiceClient(*handle.address)
        assert client.verdict(["sb"], deadline=60.0).ok
        time.sleep(0.6)  # the server idles the connection out
        assert client.verdict(["sb"], deadline=60.0).ok  # transparent retry
        assert client.stats()["service"]["counters"]["connections"] == 2


def test_connection_close_header_is_honored():
    import http.client as http_client

    with make_service(processes=None) as handle:
        host, port = handle.address
        connection = http_client.HTTPConnection(host, port, timeout=30.0)
        try:
            connection.request("GET", "/healthz", headers={"Connection": "close"})
            raw = connection.getresponse()
            assert raw.status == 200
            assert raw.getheader("Connection") == "close"
            raw.read()
        finally:
            connection.close()
        client = ServiceClient(host, port)
        response = client._request("GET", "/healthz")
        assert response.headers["connection"] == "keep-alive"


# -- admission fairness ----------------------------------------------------------


def test_admission_fairness_sheds_only_the_greedy_client():
    config = ServiceConfig(
        port=0, max_queue=64, max_inflight_per_client=2, batch_window=0.0
    )
    with make_service(processes=None, config=config) as handle:
        service = handle.service
        original = service._run_group

        def slow_run_group(group, pooled):
            time.sleep(1.0)
            return original(group, pooled)

        service._run_group = slow_run_group
        greedy = ServiceClient(*handle.address)
        polite = ServiceClient(*handle.address)
        first: list = []
        thread = threading.Thread(
            target=lambda: first.append(greedy.verdict(["sb", "mp"], deadline=30.0))
        )
        thread.start()
        deadline = time.monotonic() + 5.0
        while service._inflight + len(service._queue) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)

        # The greedy client is at its quota: its next request is shed
        # with 429 + Retry-After, naming the per-client cap...
        shed = greedy.verdict(["lb"], deadline=30.0)
        assert shed.status == 429
        assert shed.retry_after is not None and shed.retry_after >= 1
        assert "per-client cap" in shed.error
        # ...while a polite client is admitted concurrently.
        ok = polite.verdict(["lb"], deadline=30.0)
        assert ok.ok
        assert ok.results[0]["status"] == "ok"

        thread.join()
        assert first[0].ok
        counters = polite.stats()["service"]["counters"]
        assert counters["shed_per_client"] == 1
        assert counters["shed"] == 0
        assert counters["admitted"] == 3
        # Quota slots are released once items are answered.
        assert polite.stats()["service"]["clients_inflight"] == {}


# -- request validation ----------------------------------------------------------


def test_http_error_paths():
    with make_service(processes=None) as handle:
        client = ServiceClient(*handle.address)
        assert client._request("GET", "/nope").status == 404
        assert client._request("GET", "/verdict").status == 405
        assert client._request("POST", "/stats").status == 405
        assert client._request("POST", "/verdict", body=b"{broken").status == 400
        assert client.verdict([]).status == 400
        assert client.verdict(["no-such-test"]).status == 400
        assert client.verdict(["sb"], model="no-such-model").status == 400
        assert client.verdict(["sb"], deadline=-1).status == 400
        response = client._request(
            "POST", "/repair", body=b'{"tests": ["sb"], "strategy": "magic"}'
        )
        assert response.status == 400
        response = client._request("POST", "/verdict", body=DEEPLY_NESTED)
        assert response.status == 400
        counters = client.stats()["service"]["counters"]
        assert counters["http_errors"] >= 8


# -- backpressure and deadlines --------------------------------------------------


def test_admission_queue_sheds_with_429_and_retry_after():
    config = ServiceConfig(port=0, max_queue=2, batch_window=0.0)
    with make_service(processes=None, config=config) as handle:
        service = handle.service
        original = service._run_group

        def slow_run_group(group, pooled):
            time.sleep(1.0)
            return original(group, pooled)

        service._run_group = slow_run_group
        client = ServiceClient(*handle.address)
        first: list = []
        thread = threading.Thread(
            target=lambda: first.append(client.verdict(["sb"], deadline=30.0))
        )
        thread.start()
        # Wait until the slow batch is actually in flight.
        deadline = time.monotonic() + 5.0
        while service._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service._inflight == 1
        shed = client.verdict(["sb", "mp"], deadline=30.0)
        assert shed.status == 429
        assert shed.retry_after is not None and shed.retry_after >= 1
        thread.join()
        assert first[0].ok
        counters = client.stats()["service"]["counters"]
        assert counters["shed"] == 2
        assert counters["admitted"] == 1


def test_deadline_kills_a_hung_chunk_and_answers_timeout():
    faults.install(FaultSpec("hang", "sb", hang_seconds=120.0))
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        started = time.monotonic()
        response = client.verdict(["sb"], deadline=1.0)
        elapsed = time.monotonic() - started
        assert response.ok
        (line,) = response.results
        assert line["test"] == "sb"
        assert line["status"] == "timeout"
        assert line["error"]["kind"] == "timeout"
        assert elapsed < 15.0, f"deadline did not bound the request ({elapsed:.1f}s)"


def test_expired_queue_items_never_reach_execution():
    config = ServiceConfig(port=0, max_queue=8, batch_window=0.0)
    with make_service(processes=None, config=config) as handle:
        service = handle.service
        original = service._run_group

        def slow_run_group(group, pooled):
            time.sleep(0.8)
            return original(group, pooled)

        service._run_group = slow_run_group
        client = ServiceClient(*handle.address)
        blocker: list = []
        thread = threading.Thread(
            target=lambda: blocker.append(client.verdict(["sb"], deadline=30.0))
        )
        thread.start()
        deadline = time.monotonic() + 5.0
        while service._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        # This request's budget expires while the slow batch holds the
        # executor: it must be answered "timeout" without ever running.
        response = client.verdict(["mp"], deadline=0.2)
        assert response.ok
        (line,) = response.results
        assert line["status"] == "timeout"
        thread.join()
        assert blocker[0].ok
        counters = client.stats()["service"]["counters"]
        assert counters["expired_in_queue"] == 1


# -- the circuit breaker ---------------------------------------------------------


def test_breaker_trips_to_degraded_mode_and_recovers():
    config = ServiceConfig(
        port=0,
        breaker_threshold=2,
        breaker_window=60.0,
        breaker_probe_interval=0.3,
        batch_window=0.0,
    )
    faults.install(FaultSpec("crash", "sb"))  # workers only: serial mode heals
    with make_service(config=config) as handle:
        client = ServiceClient(*handle.address)
        # Pooled batches crash the worker on every attempt; the
        # incidents trip the breaker.
        poisoned = client.verdict(["sb"], deadline=60.0)
        assert poisoned.ok
        for _ in range(20):
            if client.stats()["service"]["breaker"]["state"] == OPEN:
                break
            client.verdict(["sb"], deadline=60.0)
        stats = client.stats()["service"]
        assert stats["breaker"]["state"] == OPEN
        assert stats["breaker"]["trips"] >= 1

        # Open breaker: execution degrades to serial in-process, where
        # the worker-only fault does not fire — requests still succeed.
        degraded = client.verdict(["sb"], deadline=60.0)
        assert degraded.ok
        assert degraded.results[0]["status"] == "ok"
        assert degraded.results[0]["mode"] == "serial"
        assert client.stats()["service"]["counters"]["degraded_batches"] >= 1

        # Wait out the probe interval: the next batch is the half-open
        # probe.  The live workers inherited the fault plan at fork, so
        # the probe uses a test the plan does not target — a clean
        # probe closes the breaker.
        faults.uninstall()
        time.sleep(0.35)
        probe = client.verdict(["mp"], deadline=60.0)
        assert probe.ok
        assert probe.results[0]["mode"] == "pooled"
        stats = client.stats()["service"]
        assert stats["breaker"]["state"] == CLOSED
        assert stats["counters"]["probe_batches"] >= 1


def test_breaker_unit_automaton():
    clock = [0.0]
    breaker = CircuitBreaker(
        threshold=3, window=10.0, probe_interval=5.0, clock=lambda: clock[0]
    )
    assert breaker.allow_pooled()
    breaker.record_incidents(2)
    assert breaker.state == CLOSED
    breaker.record_incidents(1)
    assert breaker.state == OPEN
    assert not breaker.allow_pooled()
    clock[0] = 6.0
    assert breaker.allow_pooled()  # this batch is the probe
    assert breaker.state == HALF_OPEN
    assert not breaker.allow_pooled()  # one probe at a time
    breaker.record_probe(healthy=False)
    assert breaker.state == OPEN
    assert breaker.trips == 2
    clock[0] = 12.0
    assert breaker.allow_pooled()
    breaker.record_probe(healthy=True)
    assert breaker.state == CLOSED
    assert breaker.recent_incidents() == 0
    # Incidents outside the window never trip.
    breaker.record_incidents(2)
    clock[0] = 30.0
    breaker.record_incidents(2)
    assert breaker.state == CLOSED


# -- observability ---------------------------------------------------------------


def test_stats_and_healthz_expose_service_and_session_trees():
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        client.verdict(["sb"], deadline=60.0)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        stats = client.stats()
        service = stats["service"]
        assert service["breaker"]["state"] == CLOSED
        assert service["config"]["max_queue"] == 256
        assert service["counters"]["responses"] >= 1
        assert service["draining"] is False
        session = stats["session"]
        assert "supervisor" in session and "caches" in session
        assert "errors_dropped" in session["supervisor"]
        # Idle-TTL expiry is attributed all the way up to GET /stats.
        assert "expirations" in session["caches"]["context"]


# -- graceful drain --------------------------------------------------------------


def test_graceful_drain_finishes_in_flight_and_rejects_new():
    config = ServiceConfig(port=0, drain_window=10.0, batch_window=0.0)
    handle = make_service(processes=None, config=config).start()
    service = handle.service
    original = service._run_group

    def slow_run_group(group, pooled):
        time.sleep(0.6)
        return original(group, pooled)

    service._run_group = slow_run_group
    client = ServiceClient(*handle.address)
    inflight: list = []
    thread = threading.Thread(
        target=lambda: inflight.append(client.verdict(["sb"], deadline=30.0))
    )
    thread.start()
    deadline = time.monotonic() + 5.0
    while service._inflight == 0 and time.monotonic() < deadline:
        time.sleep(0.01)

    handle.request_drain()
    deadline = time.monotonic() + 5.0
    while not service._draining and time.monotonic() < deadline:
        time.sleep(0.01)
    rejected = client.verdict(["mp"], deadline=30.0)
    assert rejected.status == 503
    assert rejected.retry_after is not None

    thread.join()
    handle.join()
    assert inflight[0].ok, "in-flight work must complete during the drain"
    assert inflight[0].results[0]["status"] == "ok"
    assert service.counters["rejected_draining"] == 1
    assert service.counters["drain_unanswered"] == 0
    assert service.counters["drain_seconds"] > 0
    assert service.session._pool is None, "drain must close the pool"
    assert service.breaker.state == CLOSED


def test_drain_window_expiry_aborts_an_overdue_chunk():
    faults.install(FaultSpec("hang", "sb", hang_seconds=120.0))
    config = ServiceConfig(port=0, drain_window=0.5, batch_window=0.0)
    handle = make_service(config=config).start()
    service = handle.service
    client = ServiceClient(*handle.address)
    hung: list = []
    thread = threading.Thread(
        # A huge deadline: only the drain window may cut this short.
        target=lambda: hung.append(client.verdict(["sb"], deadline=120.0))
    )
    thread.start()
    deadline = time.monotonic() + 5.0
    while service._inflight == 0 and time.monotonic() < deadline:
        time.sleep(0.01)

    started = time.monotonic()
    handle.request_drain()
    thread.join(timeout=30.0)
    handle.join(30.0)
    elapsed = time.monotonic() - started
    assert elapsed < 20.0, f"drain did not bound the hung chunk ({elapsed:.1f}s)"
    assert hung and hung[0].ok
    (line,) = hung[0].results
    # The overdue chunk was killed: the item is answered, not dropped.
    assert line["status"] in ("unavailable", "timeout", "quarantined")
    assert service.counters["drain_seconds"] >= 0.5
    assert service.session._pool is None


def test_overdue_drain_of_a_serial_service_aborts_between_tests():
    # A serial service runs each degraded batch in its own thread, one
    # test per chunk: the drain cannot cut the hung test short, but
    # aborts every test after it.
    faults.install(FaultSpec("hang", "sb", only_in_worker=False, hang_seconds=1.5))
    config = ServiceConfig(port=0, drain_window=0.3, batch_window=0.0)
    handle = make_service(processes=None, config=config).start()
    service = handle.service
    answered: list = []

    def request():
        with ServiceClient(*handle.address) as client:
            answered.append(client.verdict(["sb", "mp", "lb", "wrc"], deadline=60.0))

    thread = threading.Thread(target=request)
    thread.start()
    deadline = time.monotonic() + 5.0
    while service._inflight == 0 and time.monotonic() < deadline:
        time.sleep(0.01)

    started = time.monotonic()
    handle.request_drain()
    thread.join(timeout=30.0)
    handle.join(30.0)
    assert not thread.is_alive() and not handle._thread.is_alive()
    assert time.monotonic() - started < 5.0
    statuses = {line["test"]: line["status"] for line in answered[0].results}
    assert statuses == {
        "sb": "ok",
        "mp": "unavailable",
        "lb": "unavailable",
        "wrc": "unavailable",
    }


@pytest.mark.parametrize("processes", (None, 2), ids=("degraded", "pooled"))
def test_a_failing_test_reads_quarantined_in_every_mode(processes):
    faults.install(FaultSpec("raise", "mp", only_in_worker=False))
    config = ServiceConfig(port=0, batch_window=0.0)
    with make_service(processes=processes, config=config) as handle:
        with ServiceClient(*handle.address) as client:
            response = client.verdict(["sb", "mp", "lb"], deadline=60.0)
        assert response.ok
        lines = {line["test"]: line for line in response.results}
        assert lines["sb"]["status"] == lines["lb"]["status"] == "ok"
        assert lines["mp"]["status"] == "quarantined"
        assert lines["mp"]["error"]["kind"] == "exception"
        mode = "serial" if processes is None else "pooled"
        assert lines["sb"]["mode"] == mode


# -- chaos: concurrent load, a killed worker, a poison test ----------------------


def test_chaos_every_well_formed_request_is_answered():
    config = ServiceConfig(port=0, max_queue=64, batch_window=0.01)
    with make_service(config=config, chunk_timeout=20.0) as handle:
        service = handle.service
        client = ServiceClient(*handle.address)
        # Warm the pool so there is a worker to kill.
        assert client.verdict(["sb"], deadline=60.0).ok

        responses: list = []
        lock = threading.Lock()

        def hammer(batch):
            for _ in range(3):
                response = client.verdict(batch, deadline=60.0)
                with lock:
                    responses.append(response)

        threads = [
            threading.Thread(target=hammer, args=(batch,))
            for batch in (["sb", "mp"], ["lb", "sb"], ["mp", "lb"], ["wrc"])
        ]
        for thread in threads:
            thread.start()

        # Mid-load: murder a pool worker and poison one test.
        time.sleep(0.1)
        supervised = service.session._pool._supervised
        if supervised is not None and supervised._members:
            supervised._members[0].process.terminate()
        faults.install(FaultSpec("raise", "lb"))

        for thread in threads:
            thread.join(timeout=120.0)
        assert len(responses) == 12, "every request must come back"
        for response in responses:
            assert response.status in (200, 429, 503)
            if response.status == 200:
                # Every test got an explicit outcome line.
                for line in response.results:
                    assert line["status"] in (
                        "ok",
                        "quarantined",
                        "timeout",
                        "error",
                        "unavailable",
                    )
        assert client.healthz()["status"] == "ok", "the service must survive"


# -- SIGTERM ---------------------------------------------------------------------


def test_sigterm_drains_and_exits_zero(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    trace = tmp_path / "service_trace.jsonl"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--processes",
            "2",
            "--trace",
            str(trace),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port, "server never reported its port"
        client = ServiceClient("127.0.0.1", port)
        assert client.verdict(["sb"], deadline=60.0).ok
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60.0)
        assert returncode == 0, "SIGTERM must drain and exit 0"
        assert trace.exists(), "--trace must export telemetry on drain"
        assert trace.read_text().strip(), "the trace must hold records"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)


# -- config and http plumbing ----------------------------------------------------


def test_service_config_validates():
    with pytest.raises(ValueError):
        ServiceConfig(max_queue=0)
    with pytest.raises(ValueError):
        ServiceConfig(batch_window=-0.1)
    with pytest.raises(ValueError):
        ServiceConfig(default_deadline=10.0, max_deadline=5.0)
    assert ServiceConfig().as_dict()["max_batch"] == 16


def test_http_helpers_roundtrip():
    raw = response_bytes(429, {"error": "full"}, extra_headers={"Retry-After": "1"})
    text = raw.decode("latin-1")
    assert text.startswith("HTTP/1.1 429 Too Many Requests\r\n")
    assert "Retry-After: 1" in text
    assert '{"error": "full"}' in text
    with pytest.raises(HttpError) as caught:
        Request(method="POST", path="/verdict", body=b"{nope").json()
    assert caught.value.status == 400
    with pytest.raises(HttpError):
        Request(method="POST", path="/verdict", body=b"").json()


# -- model comparison and verdict memoization ------------------------------------


def test_compare_endpoint_streams_tests_then_summary():
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        response = client.compare("tso", "power", deadline=120.0, events=4)
        assert response.ok
        summary = response.summary
        assert summary is not None
        assert summary["verdict"] == "incomparable"
        assert summary["witness_a"]["test"] == "r+syncs"
        assert "sb+syncs" in summary["distinguishing"]
        assert summary["truncated"] is False
        # One NDJSON line per corpus test, plus the summary line.
        assert len(response.results) == summary["num_tests"] + 1
        per_test = response.results[:-1]
        assert all(line["status"] == "ok" for line in per_test)
        sample = per_test[0]["verdicts"]
        assert set(sample) == {"tso", "power"}

        # The whole corpus memoized: a second identical comparison
        # answers every line from the verdict cache without enqueueing.
        again = client.compare("tso", "power", deadline=120.0, events=4)
        assert again.ok
        modes = {
            line["mode"] for line in again.results if line.get("status") == "ok"
        }
        assert modes == {"cache"}
        assert again.summary["verdict"] == "incomparable"

        # Cross-pollination: each half of a comparison pair seeds the
        # single-model cache, so a later /verdict hits too.
        verdict = client.verdict(["sb+syncs"], model="tso", deadline=60.0)
        assert verdict.ok
        assert verdict.results[0]["mode"] == "cache"

        cache = client.stats()["service"]["verdict_cache"]
        assert cache["hits"] >= summary["num_tests"]
        assert cache["entries"] > 0


def test_compare_clamps_the_corpus_and_flags_truncation():
    config = ServiceConfig(port=0, compare_max_tests=20)
    with make_service(config=config) as handle:
        client = ServiceClient(*handle.address)
        response = client.compare("tso", "power", deadline=120.0, events=4)
        assert response.ok
        summary = response.summary
        assert summary["num_tests"] == 20
        assert summary["truncated"] is True
        assert summary["budget"]["limit"] == 20


def test_compare_rejects_bad_requests():
    with make_service(processes=1) as handle:
        client = ServiceClient(*handle.address)
        only_one = client.compare("tso", "tso")
        assert only_one.ok  # self-comparison is legal
        bad = ServiceClient(*handle.address)
        response = bad._request(
            "POST", "/compare", body=b'{"models": ["tso"]}'
        )
        assert response.status == 400
        response = bad._request(
            "POST",
            "/compare",
            body=b'{"models": ["tso", "nosuchmodel"]}',
        )
        assert response.status == 400
        response = bad._request(
            "POST",
            "/compare",
            body=b'{"models": ["tso", "power"], "budget": {"bogus": 1}}',
        )
        assert response.status == 400
        # Budget numbers JSON reads as infinity, and a body too deeply
        # nested to parse, are client errors too.
        for body in (
            b'{"models": ["tso", "power"], "budget": {"events": 1e999}}',
            b'{"models": ["tso", "power"], "budget": {"threads": Infinity}}',
            DEEPLY_NESTED,
        ):
            assert bad._request("POST", "/compare", body=body).status == 400


def test_compare_quarantines_a_poison_test_and_answers_the_rest():
    corpus = comparison_corpus(CorpusBudget(max_events=4))[:3]
    poison = corpus[1].name
    faults.install(FaultSpec("raise", poison))  # workers only
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        response = client.compare("tso", "power", deadline=120.0, events=4, limit=3)
        assert response.ok
        lines = response.results[:-1]
        assert [line["test"] for line in lines] == [test.name for test in corpus]
        statuses = {line["test"]: line["status"] for line in lines}
        assert statuses.pop(poison) == "quarantined"
        assert set(statuses.values()) == {"ok"}
        (quarantined,) = [line for line in lines if line["test"] == poison]
        assert quarantined["error"]["phase"] == "verdict_chunk"
        assert response.summary["answered"] == 2


def test_verdict_memoization_survives_requests_and_is_observable():
    with make_service() as handle:
        client = ServiceClient(*handle.address)
        first = client.verdict(["sb", "mp"], model="power", deadline=60.0)
        assert first.ok
        assert all(line["mode"] != "cache" for line in first.results)
        second = client.verdict(["sb", "mp"], model="power", deadline=60.0)
        assert second.ok
        assert all(line["mode"] == "cache" for line in second.results)
        assert [line["verdict"] for line in second.results] == [
            line["verdict"] for line in first.results
        ]
        # A different model misses: the key includes the model name.
        other = client.verdict(["sb"], model="tso", deadline=60.0)
        assert other.results[0]["mode"] != "cache"
        cache = client.stats()["service"]["verdict_cache"]
        assert cache["hits"] == 2
        assert cache["entries"] == 3


def test_verdict_cache_can_be_disabled():
    config = ServiceConfig(port=0, verdict_cache_size=0)
    with make_service(processes=1, config=config) as handle:
        client = ServiceClient(*handle.address)
        for _ in range(2):
            response = client.verdict(["sb"], model="power", deadline=60.0)
            assert response.ok
            assert response.results[0]["mode"] != "cache"
        assert client.stats()["service"]["verdict_cache"] is None
