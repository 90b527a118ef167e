"""The resilient verdict service: one Session behind an asyncio front door.

The service owns a single multi-worker :class:`~repro.session.Session`
and keeps answering verdict/repair traffic through the failure modes a
long-lived server actually meets:

* **Overload** — admission is bounded: once ``max_queue`` items are
  admitted and unanswered, new requests are shed with ``429`` and a
  ``Retry-After`` hint instead of growing an unbounded backlog.
* **Greedy clients** — admission is also *fair*: each client (its
  ``X-Client-Id`` header, or its peer address absent one) may hold at
  most ``max_inflight_per_client`` admitted-and-unanswered items, so a
  batch submitter that floods the queue is shed (``429``, same hint)
  while polite clients keep landing inside the global cap.
* **Connection churn** — connections are HTTP/1.1 keep-alive: one
  socket serves up to ``keepalive_max_requests`` requests and closes
  after ``keepalive_idle_timeout`` idle seconds, so batch clients stop
  paying a TCP handshake per verdict.  Parse errors and drains still
  close (a desynchronized or draining stream is never kept).
* **Slow work** — every request carries a deadline (its own, or the
  configured default).  The budget propagates down into the supervisor
  as ``SupervisorPolicy.with_budget``: chunk attempts are capped at it,
  no retry or bisection round starts past it, and an overdue chunk is
  killed — a slow test can never pin a request beyond its budget.
* **Concurrency** — concurrent requests for the same (kind, models,
  strategy) are **micro-batched**: the dispatcher coalesces queued
  items into campaign chunks on the warm pool and streams each item's
  JSON result line back the moment its batch lands.
* **Poison inputs and dying workers** — the supervised pool already
  quarantines and self-heals; the service adds a **circuit breaker** on
  top of the supervisor's own counters.  When deaths/timeouts/
  quarantines spike, the breaker trips and batches run degraded on a
  one-worker pool in this process (slower, but with no workers to
  lose), under the same policy and with the same failure lines;
  probe batches half-open it on a schedule and a clean probe closes it.
* **Shutdown** — SIGTERM drains: stop admitting (new requests get
  ``503``), let in-flight work finish inside ``drain_window`` seconds,
  then abort the running batch, answer queued tests ``unavailable``,
  kill overdue chunks and close the pool.

Execution happens on a **single** worker thread feeding the Session —
the Session is not thread-safe, and parallelism comes from the process
pool inside a batch, not from concurrent batches; a degraded batch
runs its chunks, one test each, in this thread.  The same thread runs
admission's bounded dry run of tests given as source.  The asyncio
loop only parses, queues, streams and supervises.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import telemetry as _telemetry
from repro.campaign import CampaignPool
from repro.campaign.runner import DEFAULT_CHUNK_SIZE
from repro.litmus.ast import LitmusTest
from repro.service.breaker import HALF_OPEN, CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.http import ChunkedWriter, HttpError, Request, read_request, response_bytes
from repro.session import Session

__all__ = ["VerdictService", "ServiceThread", "serve"]

#: Instructions that admission runs of a test given as source: the
#: whole walk of a usual litmus test (at most 365 over the registry and
#: diy corpus), a bounded prefix of a larger one.
DRY_RUN_STEPS = 2_000

#: Counter keys pre-seeded to zero so ``GET /stats`` always shows the
#: full shape, quiet servers included.
_COUNTER_NAMES = (
    "requests",
    "connections",
    "keepalive_reuses",
    "admitted",
    "shed",
    "shed_per_client",
    "rejected_draining",
    "expired_in_queue",
    "batches",
    "batched_items",
    "degraded_batches",
    "probe_batches",
    "responses",
    "http_errors",
    "drain_unanswered",
)


class _Item:
    """One admitted unit of work: a single test plus its bookkeeping."""

    __slots__ = ("kind", "test", "models", "strategy", "deadline", "future")

    def __init__(self, kind, test, models, strategy, deadline, future):
        self.kind = kind  # "verdict" | "repair" | "compare"
        self.test = test
        self.models = models  # model names: one, or a pair for "compare"
        self.strategy = strategy  # None for verdicts — batches group on it
        self.deadline = deadline  # absolute time.monotonic()
        self.future = future


class VerdictService:
    """The HTTP front door (see the module docstring for the design).

    ``session`` adopts an existing :class:`~repro.session.Session`;
    without one, a fault-tolerant session is built from
    ``session_defaults`` (``model="power"``, ``processes="auto"`` and a
    one-hour ``cache_ttl`` unless overridden).  Endpoints:

    * ``POST /verdict`` — body ``{"tests": [...], "model": "power",
      "deadline": 5.0}``; each entry is a registry name, ``{"name":
      ...}``, or ``{"source": "<litmus text>"}``.  Responds 200 with an
      NDJSON stream: one line per test, in request order, each
      ``{"test", "status", ...}`` — ``ok`` (with ``verdict``),
      ``quarantined``/``timeout``/``unavailable`` (with the structured
      ``FailedItem``), or ``error``.
    * ``POST /repair`` — same body plus optional ``strategy``
      (``greedy``/``ilp``); ``ok`` lines carry the full repair
      ``report``.
    * ``POST /compare`` — body ``{"models": ["tso", "power"],
      "budget": {"events": 4, ...}, "deadline": 10.0}``; the server
      builds the corpus (event bound clamped to
      ``compare_max_events``, size clamped to ``compare_max_tests``)
      and streams one ``{"test", "status", "verdicts": {model:
      verdict}}`` line per test followed by a final ``{"summary":
      true, "verdict", "witness_a", "witness_b", ...}`` line.
    * ``GET /stats`` — ``{"service": ..., "session": Session.stats()}``.
    * ``GET /healthz`` — liveness plus drain/breaker state.

    Verdicts memoize across requests: an admitted test whose
    ``(fingerprint, model)`` verdict is already cached answers
    from the cache (``"mode": "cache"``) without ever enqueueing, and
    every ``ok`` verdict — including each half of a comparison pair —
    populates the cache for later requests.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        config: Optional[ServiceConfig] = None,
        **session_defaults: Any,
    ):
        self.config = config or ServiceConfig()
        if session is None:
            session_defaults.setdefault("model", "power")
            session_defaults.setdefault("processes", "auto")
            session_defaults.setdefault("cache_ttl", 3600.0)
            session = Session(**session_defaults)
        elif session_defaults:
            raise TypeError("pass either session= or session defaults, not both")
        self.session = session
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            window=self.config.breaker_window,
            probe_interval=self.config.breaker_probe_interval,
        )
        self.counters: Dict[str, float] = {name: 0 for name in _COUNTER_NAMES}
        self.counters["drain_seconds"] = 0.0
        self._queue: Deque[_Item] = deque()
        self._inflight = 0
        self._client_inflight: Dict[str, int] = {}
        self._connections: set = set()
        self._busy_connections: set = set()
        self._draining = False
        self._closed = False
        self._drain_started = False
        #: Degraded batches run here: no workers, the session's policy.
        self._serial_pool = CampaignPool(1, policy=session.policy)
        self._wake: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional[asyncio.Task] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="verdict-service"
        )
        self._verdict_cache = None
        self._verdict_cache_stats = None
        if self.config.verdict_cache_size > 0:
            from repro.telemetry import CacheStats
            from repro.util.caches import BoundedTTLCache

            self._verdict_cache_stats = CacheStats(
                "service.verdicts", entries=lambda: len(self._verdict_cache)
            )
            self._verdict_cache = BoundedTTLCache(
                max_entries=self.config.verdict_cache_size,
                ttl=self.config.verdict_cache_ttl,
                stats=self._verdict_cache_stats,
            )
        self._signal_seen = self._supervisor_signal()
        self.address: Optional[Tuple[str, int]] = None

    # -- counters and breaker signals ---------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        _telemetry.count(f"service.{name}", amount)

    def _supervisor_signal(self) -> float:
        """Lifetime supervisor incidents: the breaker's input signal."""
        totals = dict(self.session._supervisor_history)
        pool = self.session._pool
        if pool is not None:
            for name, value in pool.counters.items():
                totals[name] = totals.get(name, 0) + value
        return sum(
            totals.get(name, 0)
            for name in ("worker_deaths", "timeouts", "quarantined")
        )

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the dispatcher; returns (host, port)."""
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._batcher = asyncio.get_running_loop().create_task(self._batch_loop())
        _telemetry.set_gauge("service.up", 1)
        return self.address

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish in-flight work
        within the drain window, then abort stragglers and close the
        pool.  Idempotent; resets the breaker so a later restart of the
        owning process starts closed."""
        if self._drain_started:
            return
        self._drain_started = True
        started = time.monotonic()
        # Stop admitting first, but keep the listener up through the
        # drain window: late clients get an explicit 503 + Retry-After
        # instead of a connection refusal, and in-flight streams keep
        # their sockets.
        self._draining = True

        deadline = started + self.config.drain_window
        while (self._queue or self._inflight) and time.monotonic() < deadline:
            if self._wake is not None:
                self._wake.set()
            await asyncio.sleep(0.02)

        overdue = bool(self._queue or self._inflight)
        if overdue:
            # The window is blown: answer what is still queued at once,
            # and abort the running batch, pooled or degraded (the
            # executor thread unblocks with `aborted` failures).
            unanswered = list(self._queue)
            self._queue.clear()
            if unanswered:
                self._count("drain_unanswered", len(unanswered))
            for item in unanswered:
                self._resolve(
                    item,
                    {
                        "test": item.test.name,
                        "status": "unavailable",
                        "error": "service drained before this test ran",
                    },
                )
            grace_until = time.monotonic() + 5.0
            while self._inflight and time.monotonic() < grace_until:
                # Every turn: a batch that left the queue before the
                # abort but starts after it clears the abort as it starts.
                for pool in (self.session._pool, self._serial_pool):
                    if pool is not None:
                        pool.abort()
                await asyncio.sleep(0.02)

        self._closed = True
        if self._server is not None:
            self._server.close()
        # Kept-alive connections idling between requests would otherwise
        # pin the listener shutdown until their idle timeout expires;
        # busy ones are mid-response and close themselves (the handler
        # loop never keeps a connection once the drain has started).
        for writer in list(self._connections - self._busy_connections):
            with contextlib.suppress(Exception):
                writer.close()
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._wake is not None:
            self._wake.set()
        if self._batcher is not None:
            try:
                await asyncio.wait_for(self._batcher, timeout=10.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._batcher.cancel()
            self._batcher = None

        # Close the pool off-loop (process joins block).  After an abort
        # a small grace kills the overdue chunk's worker instead of
        # waiting out the policy default.
        grace = 0.5 if overdue else None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: self.session.close(grace))
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.breaker.reset()
        elapsed = time.monotonic() - started
        self.counters["drain_seconds"] = elapsed
        _telemetry.observe("service.drain_seconds", elapsed)
        _telemetry.set_gauge("service.up", 0)

    # -- verdict memoization ------------------------------------------------------

    def _memo_key(self, test: LitmusTest, model: str):
        from repro.campaign.context import test_fingerprint

        return (test_fingerprint(test), model)

    def _cached_outcome(
        self, kind: str, test: LitmusTest, models: Tuple[str, ...]
    ) -> Optional[Dict[str, Any]]:
        """A ready-made ``ok`` outcome for *test* when the verdict cache
        already knows its verdict under every one of *models*.  Repairs
        never memoize (reports are strategy-bound)."""
        cache = self._verdict_cache
        if cache is None or kind == "repair":
            return None
        verdicts = []
        for name in models:
            verdict = cache.get(self._memo_key(test, name))
            if verdict is None:
                self._verdict_cache_stats.miss()
                return None
            verdicts.append(verdict)
        self._verdict_cache_stats.hit()
        return self._verdict_line(kind, test.name, models, verdicts, "cache")

    def _memoize(self, item: _Item, outcome: Dict[str, Any]) -> None:
        cache = self._verdict_cache
        if cache is None or item.kind == "repair" or outcome.get("status") != "ok":
            return
        if item.kind == "verdict":
            verdicts = {item.models[0]: outcome["verdict"]}
        else:
            verdicts = outcome["verdicts"]
        for name, verdict in verdicts.items():
            cache[self._memo_key(item.test, name)] = verdict

    @staticmethod
    def _verdict_line(
        kind: str, test_name: str, models, verdicts, mode: str
    ) -> Dict[str, Any]:
        """An ``ok`` verdict line: ``verdict`` for a ``/verdict`` item,
        ``verdicts`` keyed by model name for a ``/compare`` item."""
        line: Dict[str, Any] = {"test": test_name, "status": "ok", "mode": mode}
        if kind == "verdict":
            line["verdict"] = verdicts[0]
        else:
            line["verdicts"] = dict(zip(models, verdicts))
        return line

    # -- admission ----------------------------------------------------------------

    def _retry_after_headers(self) -> Dict[str, str]:
        return {"Retry-After": str(max(1, round(self.config.retry_after)))}

    async def _admit(
        self,
        kind: str,
        tests: List[LitmusTest],
        models: Tuple[str, ...],
        strategy: Optional[str],
        budget: float,
        client: Optional[str] = None,
        sources: Sequence[LitmusTest] = (),
    ) -> List[_Item]:
        """Queue a request's tests, or raise the ``503``/``429``/``400``
        that refuses it.

        *sources*, the tests given as source, are dry-run only once
        admission would take the request; admission is checked again
        after, as other requests may have filled the queue meanwhile.
        """
        # Memoized verdicts answer from the cache without ever entering
        # the queue, so only the misses compete for admission capacity.
        cached = [self._cached_outcome(kind, test, models) for test in tests]
        miss_count = sum(1 for outcome in cached if outcome is None)
        self._check_capacity(kind, len(tests), miss_count, client)
        if sources:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._check_runnable, sources
            )
            self._check_capacity(kind, len(tests), miss_count, client)
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + budget
        items = []
        misses = []
        for test, outcome in zip(tests, cached):
            item = _Item(kind, test, models, strategy, deadline, loop.create_future())
            items.append(item)
            if outcome is not None:
                item.future.set_result(outcome)
            else:
                misses.append(item)
        if client is not None and kind != "compare" and misses:
            self._client_inflight[client] = (
                self._client_inflight.get(client, 0) + len(misses)
            )
            for item in misses:
                item.future.add_done_callback(
                    lambda _future, c=client: self._client_done(c)
                )
        self._queue.extend(misses)
        self._count("admitted", len(misses))
        _telemetry.set_gauge("service.queue_depth", len(self._queue) + self._inflight)
        if self._wake is not None and misses:
            self._wake.set()
        return items

    def _check_capacity(
        self, kind: str, count: int, miss_count: int, client: Optional[str]
    ) -> None:
        """Raise the ``503`` or ``429`` that admitting *miss_count* more
        items of a *count*-test request from *client* earns, if any."""
        if self._draining or self._closed:
            self._count("rejected_draining", count)
            raise HttpError(
                503, "service is draining", self._retry_after_headers()
            )
        # Per-client fairness first: a greedy client is told it (and
        # only it) is over quota even while the global queue has room.
        # Comparison corpora are exempt — the *server* chooses that
        # fan-out (clamped by compare_max_tests), not the client.
        if client is not None and kind != "compare":
            held = self._client_inflight.get(client, 0)
            if held + miss_count > self.config.max_inflight_per_client:
                self._count("shed_per_client", count)
                raise HttpError(
                    429,
                    f"client {client} holds {held} in-flight items "
                    f"(per-client cap {self.config.max_inflight_per_client})",
                    self._retry_after_headers(),
                )
        depth = len(self._queue) + self._inflight
        if depth + miss_count > self.config.max_queue:
            self._count("shed", count)
            raise HttpError(
                429,
                f"admission queue full ({depth} items in flight, "
                f"cap {self.config.max_queue})",
                self._retry_after_headers(),
            )

    def _client_done(self, client: str) -> None:
        """One of *client*'s items was answered: release its quota slot."""
        held = self._client_inflight.get(client, 0) - 1
        if held > 0:
            self._client_inflight[client] = held
        else:
            self._client_inflight.pop(client, None)

    def _resolve(self, item: _Item, outcome: Dict[str, Any]) -> None:
        if not item.future.done():
            item.future.set_result(outcome)

    # -- the dispatcher -----------------------------------------------------------

    async def _batch_loop(self) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        while not self._closed:
            if not self._queue:
                self._wake.clear()
                if self._closed:
                    break
                await self._wake.wait()
                continue
            if (
                len(self._queue) < cfg.max_batch
                and cfg.batch_window > 0
                and not self._draining
            ):
                # Coalescing window: let concurrent arrivals join the batch.
                await asyncio.sleep(cfg.batch_window)

            now = time.monotonic()
            overdue = [item for item in self._queue if item.deadline <= now]
            for item in overdue:
                self._queue.remove(item)
                self._resolve(
                    item,
                    {
                        "test": item.test.name,
                        "status": "timeout",
                        "error": "deadline expired while queued",
                    },
                )
            if overdue:
                self._count("expired_in_queue", len(overdue))
            if not self._queue:
                continue

            # The tightest deadline picks the batch key; everything
            # compatible rides along, earliest deadlines first.
            head = min(self._queue, key=lambda item: item.deadline)
            key = (head.kind, head.models, head.strategy)
            group = [
                item
                for item in sorted(self._queue, key=lambda item: item.deadline)
                if (item.kind, item.models, item.strategy) == key
            ][: cfg.max_batch]
            for item in group:
                self._queue.remove(item)
            self._inflight += len(group)
            self._count("batches")
            self._count("batched_items", len(group))

            pooled = probe = False
            if self.session.workers > 1:
                pooled = self.breaker.allow_pooled()
                probe = pooled and self.breaker.state == HALF_OPEN
            if not pooled:
                self._count("degraded_batches")
            if probe:
                self._count("probe_batches")

            try:
                outcomes = await loop.run_in_executor(
                    self._executor, self._run_group, group, pooled
                )
            except Exception as exc:  # noqa: BLE001 — the loop must survive
                outcomes = [
                    {
                        "test": item.test.name,
                        "status": "error",
                        "error": repr(exc),
                    }
                    for item in group
                ]

            signal = self._supervisor_signal()
            incidents = int(signal - self._signal_seen)
            self._signal_seen = signal
            if probe:
                self.breaker.record_probe(incidents == 0)
            elif pooled:
                self.breaker.record_incidents(incidents)

            for item, outcome in zip(group, outcomes):
                self._memoize(item, outcome)
                self._resolve(item, outcome)
            self._inflight -= len(group)
            _telemetry.set_gauge(
                "service.queue_depth", len(self._queue) + self._inflight
            )

    # -- batch execution (single worker thread) -----------------------------------

    def _run_group(self, group: List[_Item], pooled: bool) -> List[Dict[str, Any]]:
        """Run one batch under its earliest deadline: on the session's
        pool, or degraded on the service's one-worker pool, one test per
        chunk, so the deadline and an abort are checked before each."""
        session = self.session
        head = group[0]
        tests = [item.test for item in group]
        budget = min(item.deadline for item in group) - time.monotonic()
        mode = "pooled" if pooled else "serial"
        errors: List[Any] = []
        batch = dict(
            pool=session.pool() if pooled else self._serial_pool,
            chunk_size=DEFAULT_CHUNK_SIZE if pooled else 1,
            context_cache=session.context_cache,
            policy=session.policy.with_budget(budget),
            errors=errors,
        )

        if head.kind == "repair":
            from repro.fences.campaign import repair_family

            result = repair_family(
                tests,
                head.models[0],
                cache=session.cycle_cache,
                strategy=head.strategy or session.strategy,
                **batch,
            )
            survivors = [(report.test_name, report) for report in result.reports]

            def render(item: _Item, report) -> Dict[str, Any]:
                return {
                    "test": report.test_name,
                    "status": "ok",
                    "mode": mode,
                    "report": report.to_dict(),
                }

        else:
            from repro.compare.engine import paired_verdicts

            survivors = paired_verdicts(
                tests, head.models, engine=session.engine, **batch
            )

            def render(item: _Item, verdicts) -> Dict[str, Any]:
                return self._verdict_line(
                    item.kind, item.test.name, item.models, verdicts, mode
                )

        session.last_errors.extend(errors)
        return self._align(group, survivors, render, errors)

    @staticmethod
    def _align(
        group: List[_Item],
        survivors: List[Tuple[str, Any]],
        render: Callable[[_Item, Any], Dict[str, Any]],
        errors: List[Any],
    ) -> List[Dict[str, Any]]:
        """Zip survivors (``(test name, result)`` pairs in submission
        order) and quarantines back onto the group, one outcome per
        item."""
        remaining = list(errors)
        outcomes: List[Dict[str, Any]] = []
        index = 0
        for item in group:
            name = item.test.name
            if index < len(survivors) and survivors[index][0] == name:
                outcomes.append(render(item, survivors[index][1]))
                index += 1
                continue
            failed = next((f for f in remaining if f.item == name), None)
            if failed is not None:
                remaining.remove(failed)
                status = {"timeout": "timeout", "aborted": "unavailable"}.get(
                    failed.kind, "quarantined"
                )
                outcomes.append(
                    {"test": name, "status": status, "error": failed.to_dict()}
                )
            else:  # pragma: no cover — the campaign always accounts for items
                outcomes.append(
                    {
                        "test": name,
                        "status": "error",
                        "error": "no result or quarantine record for this test",
                    }
                )
        return outcomes

    # -- HTTP ---------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        cfg = self.config
        served = 0
        self._count("connections")
        self._connections.add(writer)
        streaming = ChunkedWriter(writer)
        try:
            while not self._closed:
                streaming = ChunkedWriter(writer)
                try:
                    request = await read_request(
                        reader,
                        cfg.max_body_bytes,
                        cfg.read_timeout,
                        # The first request gets the full read timeout;
                        # a kept-alive connection waiting for its next
                        # request is closed quietly once it goes idle.
                        idle_timeout=cfg.keepalive_idle_timeout if served else None,
                    )
                except HttpError as error:
                    # A parse-level failure may leave the stream
                    # desynchronized: answer if possible, then close.
                    self._count("http_errors")
                    with contextlib.suppress(Exception):
                        writer.write(
                            response_bytes(
                                error.status,
                                {"error": error.detail},
                                extra_headers=error.headers,
                            )
                        )
                        await writer.drain()
                    return
                if request is None:
                    return  # clean EOF or idle keep-alive expiry
                served += 1
                if served > 1:
                    self._count("keepalive_reuses")
                keep_alive = (
                    served < cfg.keepalive_max_requests
                    and not self._draining
                    and request.headers.get("connection", "").lower() != "close"
                )
                self._busy_connections.add(writer)
                try:
                    await self._route(request, writer, streaming, keep_alive)
                except HttpError as error:
                    # Application-level: the request was read in full,
                    # so the connection stays in sync and may go on.
                    self._count("http_errors")
                    if streaming.started:
                        return
                    with contextlib.suppress(Exception):
                        writer.write(
                            response_bytes(
                                error.status,
                                {"error": error.detail},
                                extra_headers=error.headers,
                                keep_alive=keep_alive,
                            )
                        )
                        await writer.drain()
                finally:
                    self._busy_connections.discard(writer)
                if not keep_alive or self._draining:
                    return
        except (ConnectionError, asyncio.TimeoutError):
            pass  # the client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 — one connection, not the server
            self._count("http_errors")
            if not streaming.started:
                with contextlib.suppress(Exception):
                    writer.write(response_bytes(500, {"error": repr(exc)}))
                    await writer.drain()
        finally:
            self._connections.discard(writer)
            self._busy_connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(
        self,
        request: Request,
        writer,
        streaming: ChunkedWriter,
        keep_alive: bool = False,
    ) -> None:
        path, method = request.path, request.method
        if path == "/stats":
            if method != "GET":
                raise HttpError(405, "use GET /stats")
            writer.write(response_bytes(200, self.stats(), keep_alive=keep_alive))
            await writer.drain()
            return
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET /healthz")
            writer.write(
                response_bytes(
                    200,
                    {
                        "status": "draining" if self._draining else "ok",
                        "workers": self.session.workers,
                        "breaker": self.breaker.state,
                    },
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
            return
        if path in ("/verdict", "/repair"):
            if method != "POST":
                raise HttpError(405, f"use POST {path}")
            self._count("requests")
            kind = path[1:]
            tests, sources, model, strategy, budget = self._parse_submission(
                request, kind
            )
            client = self._client_of(request, writer)
            items = await self._admit(
                kind, tests, (model,), strategy, budget, client, sources
            )
            await streaming.start(200, keep_alive=keep_alive)
            for item in items:
                outcome = await self._await_item(item)
                await streaming.write_line(outcome)
                self._count("responses")
            await streaming.finish()
            return
        if path == "/compare":
            if method != "POST":
                raise HttpError(405, "use POST /compare")
            self._count("requests")
            models, budget, limit, deadline = self._parse_compare(request)
            corpus, truncated = await asyncio.get_running_loop().run_in_executor(
                None, self._compare_corpus, budget, limit
            )
            client = self._client_of(request, writer)
            items = await self._admit(
                "compare", corpus, models, None, deadline, client
            )
            await streaming.start(200, keep_alive=keep_alive)
            from repro.compare.corpus import event_count

            rows = []
            for item in items:
                outcome = await self._await_item(item)
                await streaming.write_line(outcome)
                self._count("responses")
                if outcome.get("status") == "ok":
                    verdicts = outcome["verdicts"]
                    rows.append(
                        (
                            item.test.name,
                            verdicts[models[0]],
                            verdicts[models[1]],
                            event_count(item.test),
                            item.test.num_threads(),
                        )
                    )
            await streaming.write_line(
                self._compare_summary(
                    models, rows, budget, limit, len(items), truncated
                )
            )
            self._count("responses")
            await streaming.finish()
            return
        raise HttpError(404, f"no such endpoint: {path}")

    @staticmethod
    def _client_of(request: Request, writer) -> Optional[str]:
        """Fairness identity: the client's self-declared id when it
        sends one (ServiceClient always does — one id across all of its
        connections), else the peer address."""
        peername = writer.get_extra_info("peername")
        return request.headers.get("x-client-id") or (
            peername[0] if isinstance(peername, tuple) else None
        )

    @staticmethod
    async def _await_item(item: _Item) -> Dict[str, Any]:
        remaining = item.deadline - time.monotonic()
        try:
            # shield(): wait_for must not cancel the shared future on
            # timeout — the batch may still resolve it for the record.
            # The extra second covers batcher scheduling of an expiry
            # that lands exactly on the deadline.
            return await asyncio.wait_for(
                asyncio.shield(item.future),
                timeout=max(remaining, 0.0) + 1.0,
            )
        except asyncio.TimeoutError:
            return {
                "test": item.test.name,
                "status": "timeout",
                "error": "deadline expired before a result was produced",
            }

    def _parse_submission(
        self, request: Request, kind: str
    ) -> Tuple[List[LitmusTest], List[LitmusTest], str, Optional[str], float]:
        """``(tests, the tests given as source, model, strategy,
        deadline)`` of a ``/verdict`` or ``/repair`` body."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        specs = payload.get("tests", payload.get("test"))
        if isinstance(specs, (str, dict)):
            specs = [specs]
        if not isinstance(specs, list) or not specs:
            raise HttpError(400, 'provide a non-empty "tests" list')

        model = payload.get("model")
        if model is None:
            model = (
                self.session.model
                if isinstance(self.session.model, str)
                else "power"
            )
        model = self._resolve_model_name(model)

        strategy = payload.get("strategy") if kind == "repair" else None
        if strategy is not None and strategy not in ("greedy", "ilp"):
            raise HttpError(400, f'"strategy" must be "greedy" or "ilp", got {strategy!r}')

        budget = self._parse_deadline(payload)

        tests = [self._resolve_test(spec) for spec in specs]
        sources = [
            test
            for spec, test in zip(specs, tests)
            if isinstance(spec, dict) and "source" in spec
        ]
        return tests, sources, model, strategy, budget

    @staticmethod
    def _check_runnable(tests: Sequence[LitmusTest]) -> None:
        """Dry-run tests parsed from source for :data:`DRY_RUN_STEPS`
        instructions each.  A test that parses but cannot run is the
        client's error, answered 400 before admission, never a worker
        fault for the supervisor to retry and the breaker to count; one
        whose fault lies past the budget is left to the workers."""
        from repro.litmus.semantics import SemanticsError, check_runnable

        for test in tests:
            try:
                check_runnable(test, DRY_RUN_STEPS)
            except SemanticsError as exc:
                raise HttpError(
                    400, f"litmus test {test.name!r} cannot run: {exc}"
                ) from None

    def _parse_deadline(self, payload: Dict[str, Any]) -> float:
        budget = payload.get("deadline", self.config.default_deadline)
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise HttpError(400, '"deadline" must be a number of seconds')
        if not budget > 0:  # also rejects NaN
            raise HttpError(400, f'"deadline" must be positive, got {budget}')
        return min(float(budget), self.config.max_deadline)

    def _resolve_model_name(self, model: Any) -> str:
        if not isinstance(model, str):
            raise HttpError(400, f"model must be a name string, got {model!r}")
        try:
            self.session.resolve(model)
        except Exception as exc:
            raise HttpError(400, f"unknown model {model!r}: {exc}") from None
        return model.lower()

    def _parse_compare(self, request: Request):
        """``POST /compare`` body: ``(models, budget, limit, deadline)``."""
        from repro.compare.corpus import CorpusBudget

        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        models = payload.get("models")
        if not isinstance(models, list) or len(models) != 2:
            raise HttpError(400, 'provide "models": [A, B], two model names')
        models = tuple(self._resolve_model_name(model) for model in models)

        spec = payload.get("budget", {})
        if not isinstance(spec, dict):
            raise HttpError(400, '"budget" must be a JSON object')
        allowed = {
            "events",
            "threads",
            "arch",
            "fences",
            "dependencies",
            "registry",
            "limit",
        }
        unknown = set(spec) - allowed
        if unknown:
            raise HttpError(
                400,
                f"unknown budget keys {sorted(unknown)}; allowed: {sorted(allowed)}",
            )
        events = spec.get("events", 4)
        try:
            budget = CorpusBudget(
                max_events=min(int(events), self.config.compare_max_events),
                max_threads=int(spec.get("threads", 3)),
                arch=spec.get("arch", "power"),
                fences=bool(spec.get("fences", True)),
                dependencies=bool(spec.get("dependencies", True)),
                include_registry=bool(spec.get("registry", True)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise HttpError(400, f"bad comparison budget: {exc}") from None

        limit = spec.get("limit")
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
                raise HttpError(400, f'"limit" must be a positive integer, got {limit!r}')
        limit = min(limit or self.config.compare_max_tests, self.config.compare_max_tests)

        return models, budget, limit, self._parse_deadline(payload)

    @staticmethod
    def _compare_corpus(budget, limit: int):
        """Build the comparison corpus off-loop; returns ``(tests,
        truncated)`` with the *limit* smallest tests kept (the corpus is
        size-sorted, so the slice preserves witness minimality)."""
        from repro.compare.corpus import comparison_corpus

        corpus = comparison_corpus(budget)
        return corpus[:limit], len(corpus) > limit

    @staticmethod
    def _compare_summary(
        models, rows, budget, limit: int, num_tests: int, truncated: bool
    ) -> Dict[str, Any]:
        from repro.compare.report import classify, minimal_witness

        witness_a = minimal_witness(rows, models[0], models[1], "a")
        witness_b = minimal_witness(rows, models[0], models[1], "b")
        return {
            "summary": True,
            "model_a": models[0],
            "model_b": models[1],
            "verdict": classify(rows),
            "num_tests": num_tests,
            "answered": len(rows),
            "distinguishing": [row[0] for row in rows if row[1] != row[2]],
            "witness_a": witness_a.to_dict() if witness_a else None,
            "witness_b": witness_b.to_dict() if witness_b else None,
            "truncated": truncated,
            "budget": {**budget.as_dict(), "limit": limit},
        }

    @staticmethod
    def _resolve_test(spec: Any) -> LitmusTest:
        from repro.litmus import registry as litmus_registry

        if isinstance(spec, dict) and "source" in spec:
            from repro.litmus.parser import parse_litmus

            try:
                return parse_litmus(spec["source"])
            except Exception as exc:
                raise HttpError(400, f"unparseable litmus source: {exc}") from None
        name = spec.get("name") if isinstance(spec, dict) else spec
        if not isinstance(name, str):
            raise HttpError(
                400,
                f"each test must be a registry name, {{'name': ...}} or "
                f"{{'source': ...}}; got {spec!r}",
            )
        try:
            return litmus_registry.get_test(name)
        except Exception:
            raise HttpError(400, f"unknown litmus test {name!r}") from None

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload: service plus session trees."""
        return {
            "service": {
                "counters": dict(self.counters),
                "queue_depth": len(self._queue),
                "inflight": self._inflight,
                "clients_inflight": dict(self._client_inflight),
                "open_connections": len(self._connections),
                "draining": self._draining,
                "breaker": self.breaker.as_dict(),
                "verdict_cache": (
                    self._verdict_cache_stats.as_dict()
                    if self._verdict_cache_stats is not None
                    else None
                ),
                "config": self.config.as_dict(),
            },
            "session": self.session.stats(),
        }


async def _serve_async(
    service: VerdictService, *, install_signal_handlers: bool = True
) -> None:
    """Run *service* until SIGTERM/SIGINT, then drain."""
    import signal

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
    host, port = await service.start()
    print(f"verdict-service listening on http://{host}:{port}", flush=True)
    await stop.wait()
    print("verdict-service draining", flush=True)
    await service.drain()
    print(
        f"verdict-service drained in "
        f"{service.counters['drain_seconds']:.2f}s",
        flush=True,
    )


def serve(
    config: Optional[ServiceConfig] = None,
    session: Optional[Session] = None,
    **session_defaults: Any,
) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, return 0."""
    service = VerdictService(session=session, config=config, **session_defaults)
    asyncio.run(_serve_async(service))
    return 0


class ServiceThread:
    """A service on a background event loop — tests, benchmarks, examples.

    ::

        with ServiceThread(processes=2, config=ServiceConfig(port=0)) as handle:
            client = ServiceClient(*handle.address)
            ...

    ``request_drain()`` triggers the same drain path SIGTERM does;
    leaving the ``with`` block requests it and joins the thread.
    """

    def __init__(
        self,
        service: Optional[VerdictService] = None,
        config: Optional[ServiceConfig] = None,
        **session_defaults: Any,
    ):
        if service is None:
            service = VerdictService(config=config, **session_defaults)
        elif config is not None or session_defaults:
            raise TypeError("pass either service= or config/session defaults")
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self.service.address is not None, "service not started"
        return self.service.address

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="verdict-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.service.address is None:
            raise RuntimeError("verdict service failed to start within 30s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced to start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._ready.set()
        await self._stop.wait()
        await self.service.drain()

    def request_drain(self) -> None:
        """Trigger the drain from any thread (the SIGTERM path)."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)

    def join(self, timeout: Optional[float] = 60.0) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.request_drain()
        self.join()
