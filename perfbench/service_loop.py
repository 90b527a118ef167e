"""Drive the verdict service: a closed loop of keep-alive clients, and the
replays that split a request's latency into front door, dispatch and compute.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

Request = Tuple[List[str], str]


class LoopRecord:
    __slots__ = ("index", "latency_s", "done", "verdicts", "error")

    def __init__(self, index, latency_s, done, verdicts, error):
        self.index = index
        self.latency_s = latency_s
        self.done = done
        self.verdicts = verdicts
        self.error = error


def check_response(response, names: Sequence[str], model: str, expected: Callable):
    """``(verdicts, None)`` for a correct answer, else ``(None, reason)``."""
    if response.status != 200:
        return None, f"HTTP {response.status}"
    if [line.get("test") for line in response.results] != list(names):
        return None, f"answered {[line.get('test') for line in response.results]}"
    verdicts = []
    for name, line in zip(names, response.results):
        if line.get("status") != "ok":
            return None, f"{name}: {line}"
        if line.get("verdict") != expected(name, model):
            return None, f"{name} under {model}: {line.get('verdict')}"
        verdicts.append(line["verdict"])
    return verdicts, None


def closed_loop(
    address,
    requests: Sequence[Request],
    expected: Callable,
    clients: int,
    stop_at: Optional[float] = None,
    first: int = 0,
) -> Tuple[List[LoopRecord], float]:
    """Each client sends its next request only once the last one is
    answered, pulling from one shared list, until ``stop_at`` (a
    ``perf_counter`` time) or the list runs out.  Returns the records, by
    request index, and the loop's start time."""
    from repro.service import ServiceClient

    lock = threading.Lock()
    cursor = [first]
    records: List[LoopRecord] = []

    def client_loop() -> None:
        client = ServiceClient(*address)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests) or (
                        stop_at is not None and perf_counter() >= stop_at
                    ):
                        return
                    cursor[0] += 1
                names, model = requests[index]
                start = perf_counter()
                try:
                    response = client.verdict(names, model=model, deadline=60.0)
                except Exception as exc:  # noqa: BLE001 — counted as a failure
                    latency, verdicts, error = perf_counter() - start, None, repr(exc)
                else:
                    latency = perf_counter() - start
                    verdicts, error = check_response(response, names, model, expected)
                with lock:
                    records.append(
                        LoopRecord(index, latency, start + latency, verdicts, error)
                    )
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a service client did not finish within 120 s")
    records.sort(key=lambda record: record.index)
    return records, start


def replay(session, requests: Sequence[Request], tests_by_name, span=None):
    """Send each request through ``Session.verdict`` one after the other;
    returns ``[(latency_s, verdicts)]``.  ``span`` (a tracer) wraps each
    call in a ``session.query`` span."""
    rows = []
    for names, model in requests:
        tests = [tests_by_name[name] for name in names]
        start = perf_counter()
        if span is not None:
            span.enter("session.query")
        try:
            verdicts = session.verdict(tests, model=model)
        finally:
            if span is not None:
                span.exit()
        rows.append((perf_counter() - start, list(verdicts)))
    return rows
