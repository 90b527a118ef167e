"""Supervised campaign execution: deadlines, retries, quarantine, self-heal.

A bare process pool has production-hostile failure modes: a worker
killed by the OOM killer (or a segfault in a native extension) silently
loses its in-flight task and the batch wedges forever; an exception
whose instance cannot be pickled kills the pool's result machinery; a
runaway job (an ILP branch-and-bound that never bounds) hangs the whole
campaign.  Large hardware-testing campaigns are exactly where partial
failure is routine, so every supervised batch of
:mod:`repro.campaign.runner` runs under a **supervisor** between the
chunked batch and the OS processes (or, on zero workers, the caller):

* :class:`SupervisedPool` manages raw ``multiprocessing.Process``
  workers over duplex pipes.  The parent waits on connections *and*
  process sentinels, so a dying worker is detected the instant the OS
  reaps it — the task is rescheduled and a fresh worker is spawned in
  its place (the pool **self-heals** instead of wedging).
* Every chunk attempt runs under an optional wall-clock **deadline**
  (``SupervisorPolicy.chunk_timeout``); overdue workers are killed,
  respawned, and the chunk is retried.
* Failures are retried with bounded **exponential backoff**; a chunk
  that keeps failing is **bisected** down to the single poison item,
  so one bad job never takes its chunk-mates' results with it.
* Worker-side exceptions are captured at the chunk boundary into
  **picklable error envelopes** (:class:`ErrorEnvelope` — type name,
  ``repr``, traceback text), so even exceptions carrying unpicklable
  state cross the process boundary as plain strings.
* What happens to the poison item is the caller's
  :class:`SupervisorPolicy` — ``on_error="quarantine"`` records a
  structured :class:`FailedItem` and completes the batch,
  ``"serial_retry"`` re-runs the item in-process as graceful
  degradation, ``"raise"`` raises :class:`PoisonItemError` (the
  runner's default, with no retry and no deadline).

Every event (retry, timeout, worker death, respawn, bisection,
quarantine, backoff seconds) is counted into the pool's plain counter
dict *and* the active telemetry registry, so ``Session.stats()`` and
traces see the same story.
"""

from __future__ import annotations

import contextvars
import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import telemetry as _telemetry
from repro.report import JsonReportMixin

__all__ = [
    "CampaignPicklingWarning",
    "ErrorEnvelope",
    "ErrorRing",
    "FailedItem",
    "PoisonItemError",
    "SupervisedPool",
    "SupervisorPolicy",
    "item_label",
    "new_counters",
]


class CampaignPicklingWarning(UserWarning):
    """A job payload could not be pickled; the work ran in-process."""

#: Supervisor event counters, all plain ints (``backoff_seconds`` is a
#: float total) — the shape of ``CampaignPool.counters`` and of the
#: ``supervisor`` subtree of ``Session.stats()``.
COUNTER_NAMES = (
    "retries",
    "timeouts",
    "worker_deaths",
    "respawns",
    "bisections",
    "quarantined",
    "serial_retries",
    "unpicklable_payloads",
    "deadline_exhausted",
    "aborted",
)


def new_counters() -> Dict[str, float]:
    counters: Dict[str, float] = {name: 0 for name in COUNTER_NAMES}
    counters["backoff_seconds"] = 0.0
    return counters


def _bump(counters: Optional[Dict[str, float]], name: str, amount: float = 1) -> None:
    """Count one supervisor event into the plain dict and telemetry."""
    if counters is not None:
        counters[name] = counters.get(name, 0) + amount
    if name == "backoff_seconds":
        _telemetry.observe("campaign.supervisor.backoff_seconds", amount)
    else:
        _telemetry.count(f"campaign.supervisor.{name}", int(amount))


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a supervised campaign treats misbehaving chunks.

    ``chunk_timeout`` is the wall-clock budget of one chunk *attempt*
    in seconds (``None`` disables deadlines — hangs then wait forever);
    ``max_retries`` bounds re-submissions of one task beyond its first
    attempt; retries back off exponentially from ``backoff`` seconds by
    ``backoff_factor`` up to ``max_backoff``.  ``on_error`` decides the
    fate of a poison item once bisection has isolated it:

    * ``"quarantine"`` — drop it from the results, record a
      :class:`FailedItem`, complete the batch;
    * ``"serial_retry"`` — re-run the item in-process in the parent
      (graceful degradation: transient worker-side faults heal, and the
      surviving sharded==serial guarantee extends to the retried item);
      if it fails again, quarantine it;
    * ``"raise"`` — raise :class:`PoisonItemError` after the batch
      drains.

    ``grace`` is the shutdown grace period: ``close()`` asks workers to
    finish and waits this long before escalating to ``terminate()``.

    ``deadline`` is an absolute ``time.monotonic()`` point bounding the
    whole *batch* (``None`` for unbounded): once it passes, no retry or
    bisection round is scheduled, undispatched chunks fail fast as
    ``timeout`` quarantines, and in-flight attempts are capped at it.
    Build deadline-carrying policies with :meth:`with_budget` — the
    verdict service derives one per request from the client's budget.
    """

    chunk_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    on_error: str = "quarantine"
    grace: float = 5.0
    deadline: Optional[float] = None

    def __post_init__(self):
        if self.on_error not in ("quarantine", "raise", "serial_retry"):
            raise ValueError(
                f"on_error must be 'quarantine', 'raise' or 'serial_retry', "
                f"got {self.on_error!r}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be positive, got {self.chunk_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def backoff_seconds(self, attempt: int) -> float:
        """The backoff before re-submission number *attempt* (1-based)."""
        return min(
            self.backoff * self.backoff_factor ** max(attempt - 1, 0),
            self.max_backoff,
        )

    def with_budget(self, seconds: float) -> "SupervisorPolicy":
        """This policy bounded to *seconds* of wall clock from now.

        Sets :attr:`deadline` to ``time.monotonic() + seconds`` and caps
        :attr:`chunk_timeout` at the budget, so a single slow chunk can
        never pin the batch past it.  The budget is floored at a few
        milliseconds — an already-blown budget still produces a policy
        that fails every chunk fast rather than a validation error.
        """
        seconds = max(float(seconds), 0.005)
        timeout = (
            seconds
            if self.chunk_timeout is None
            else min(self.chunk_timeout, seconds)
        )
        return dataclasses.replace(
            self,
            chunk_timeout=timeout,
            deadline=time.monotonic() + seconds,
        )

    def expired(self, now: Optional[float] = None) -> bool:
        """Has the batch deadline passed (always False when unbounded)?"""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def as_dict(self) -> Dict[str, Any]:
        return {
            "chunk_timeout": self.chunk_timeout,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "max_backoff": self.max_backoff,
            "on_error": self.on_error,
            "grace": self.grace,
            "deadline": self.deadline,
        }


class ErrorEnvelope:
    """A worker-side failure flattened to strings — always picklable.

    Built at the chunk boundary in the worker process, so exceptions
    whose instances cannot cross a pipe (closures, locks, sockets in
    ``args``) still come home as their ``repr`` plus traceback text.
    """

    __slots__ = ("kind", "exc_type", "error", "traceback")

    def __init__(self, kind: str, exc_type: str, error: str, tb: str):
        self.kind = kind
        self.exc_type = exc_type
        self.error = error
        self.traceback = tb

    @classmethod
    def from_exception(cls, exc: BaseException, kind: str = "exception") -> "ErrorEnvelope":
        try:
            rendered = repr(exc)
        except Exception:
            rendered = f"<unreprable {type(exc).__name__}>"
        return cls(kind, type(exc).__name__, rendered, traceback.format_exc())

    def __repr__(self) -> str:
        return f"ErrorEnvelope({self.kind}: {self.error})"


@dataclass(frozen=True)
class FailedItem(JsonReportMixin):
    """One quarantined job: everything a report needs, all JSON-plain.

    ``item`` is the job's label (test name, package name, or ``repr``),
    ``phase`` the chunk worker it failed in (e.g. ``repair_chunk``),
    ``kind`` how it failed (``exception`` / ``timeout`` /
    ``worker-death`` / ``unpicklable``), ``error`` the exception's
    ``repr`` (or the death/timeout description), ``traceback`` the
    worker-side traceback text (empty for deaths and timeouts), and
    ``attempts`` how many times the supervisor tried before giving up.
    """

    item: str
    phase: str
    kind: str
    error: str
    traceback: str = ""
    attempts: int = 1

    def describe(self) -> str:
        return (
            f"{self.item} [{self.phase}]: {self.kind} after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''} — {self.error}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "failed-item",
            "item": self.item,
            "phase": self.phase,
            "kind": self.kind,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


class PoisonItemError(RuntimeError):
    """Raised under ``on_error="raise"`` once a poison item is isolated."""

    def __init__(self, failures: Sequence[FailedItem]):
        self.failures = list(failures)
        names = ", ".join(failure.item for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} campaign item(s) failed terminally: {names} "
            f"(first: {self.failures[0].describe() if self.failures else '?'})"
        )


class ErrorRing:
    """A bounded error sink: the newest *capacity* records, drops counted.

    Campaign verbs append :class:`FailedItem` records to their caller's
    ``errors`` sink; a long-lived owner (``Session.last_errors``, the
    verdict service) that never pruned it would leak memory across
    batches.  The ring keeps only the most recent *capacity* records,
    counts everything it sheds in :attr:`dropped` (which survives
    :meth:`clear`, so ``stats()`` reports lifetime drops), and behaves
    like the list the drivers expect: ``append``/``extend``, slicing,
    iteration, and equality against lists and tuples.
    """

    __slots__ = ("_items", "dropped")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._items: deque = deque(maxlen=capacity)
        self.dropped = 0

    @property
    def capacity(self) -> int:
        return self._items.maxlen or 0

    def append(self, item: Any) -> None:
        if len(self._items) == self._items.maxlen:
            self.dropped += 1
        self._items.append(item)

    def extend(self, items: Sequence[Any]) -> None:
        for item in items:
            self.append(item)

    def clear(self) -> None:
        """Forget the records (the lifetime drop count survives)."""
        self._items.clear()

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __getitem__(self, index):
        return list(self._items)[index]

    def __eq__(self, other: Any):
        if isinstance(other, (ErrorRing, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"ErrorRing({list(self._items)!r}, capacity={self.capacity}, "
            f"dropped={self.dropped})"
        )


def item_label(item: Any) -> str:
    """A human-readable label for a job spec (test / package / repr)."""
    for attribute in ("test", "item", "program"):
        inner = getattr(item, attribute, None)
        name = getattr(inner, "name", None)
        if name is not None:
            return str(name)
    for attribute in ("name", "package"):
        name = getattr(item, attribute, None)
        if isinstance(name, str):
            return name
    return repr(item)


def find_unpicklable(obj: Any, path: str = "payload") -> Optional[Tuple[str, str, str]]:
    """Locate the deepest unpicklable leaf of *obj*.

    Returns ``(path, repr(leaf), reason)`` — e.g. ``("payload[2].fn",
    "<function <lambda> ...>", "Can't pickle ...")`` — or ``None`` when
    *obj* pickles fine.  Used to turn a raw ``PicklingError`` from deep
    inside the pool machinery into an error naming the offending object.
    """
    try:
        pickle.dumps(obj)
        return None
    except Exception as exc:
        reason = str(exc)
    if isinstance(obj, (list, tuple, set, frozenset)):
        for index, entry in enumerate(obj):
            found = find_unpicklable(entry, f"{path}[{index}]")
            if found is not None:
                return found
    elif isinstance(obj, dict):
        for key, value in obj.items():
            found = find_unpicklable(key, f"{path} key {key!r}")
            if found is not None:
                return found
            found = find_unpicklable(value, f"{path}[{key!r}]")
            if found is not None:
                return found
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            found = find_unpicklable(getattr(obj, f.name), f"{path}.{f.name}")
            if found is not None:
                return found
    try:
        rendered = repr(obj)
    except Exception:
        rendered = f"<unreprable {type(obj).__name__}>"
    return (path, rendered, reason)


def warn_unpicklable(args: Any, exc: BaseException) -> None:
    """Warn, naming the exact object that would not pickle."""
    found = find_unpicklable(args, path="job")
    if found is not None:
        path, rendered, reason = found
        detail = f"{path} = {rendered} ({reason})"
    else:  # pragma: no cover — transient pickling failure
        detail = str(exc)
    warnings.warn(
        f"campaign job payload failed to pickle — {detail}; "
        f"running it serially in-process instead",
        CampaignPicklingWarning,
        stacklevel=3,
    )


def guarded_call(func: Callable, args: Tuple[Any, ...]) -> Tuple[str, Any]:
    """Run ``func(*args)`` capturing any exception into an envelope.

    The chunk boundary: returns ``("ok", value)`` or ``("err",
    ErrorEnvelope)``.  Both shapes are picklable whenever the value is,
    and the envelope is picklable *always*.
    """
    try:
        return ("ok", func(*args))
    except Exception as exc:  # noqa: BLE001 — the whole point is capture
        return ("err", ErrorEnvelope.from_exception(exc))


def _worker_main(conn) -> None:
    """The supervised worker loop: recv task, run guarded, send outcome.

    Module-level warm state (:mod:`repro.campaign.jobs`) accumulates
    across tasks and, on a persistent pool, across batches.  The loop
    serves in an empty :mod:`contextvars` context: a forked worker
    must not inherit what its forking thread had set.  A ``None``
    task is the shutdown sentinel.  Results are pickled *before* any
    bytes hit the pipe (``Connection.send`` serializes first), so an
    unpicklable result never corrupts the stream — it is re-sent as an
    error envelope instead.
    """
    contextvars.Context().run(_serve, conn)


def _serve(conn) -> None:
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        task_id, func, args = task
        outcome = guarded_call(func, args)
        try:
            conn.send((task_id, outcome))
        except Exception as exc:  # unpicklable result value
            envelope = ErrorEnvelope.from_exception(exc, kind="unpicklable")
            try:
                conn.send((task_id, ("err", envelope)))
            except Exception:
                os._exit(81)  # cannot report at all: die, supervisor reschedules
    try:
        conn.close()
    except Exception:
        pass


@dataclass
class _Task:
    """One schedulable slice of an original chunk."""

    chunk_index: int
    offset: int
    items: List[Any]
    attempts: int = 0
    ready_at: float = 0.0
    #: of the most recent failed attempt: (kind, error text, traceback).
    last_error: Tuple[str, str, str] = ("", "", "")


@dataclass
class _Failure:
    """A terminally failed single item, pre-policy."""

    chunk_index: int
    offset: int
    item: Any
    kind: str
    error: str
    traceback: str
    attempts: int


class _Worker:
    """One supervised process plus its duplex pipe."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None


class SupervisedPool:
    """Self-healing worker processes executing chunk tasks under a policy.

    Workers persist across :meth:`run_tasks` calls (their module-level
    warm state, a context cache, carries over, exactly like
    :class:`repro.campaign.CampaignPool`), and dead or overdue
    workers are replaced on the spot.  ``counters`` (shared with the
    owning :class:`~repro.campaign.CampaignPool` when there is one)
    accumulates every supervision event.

    A pool of zero workers spawns nothing: :meth:`run_tasks` runs each
    ready task in the calling thread, one slice per loop turn, under the
    same retry, bisection, deadline and abort checks as a pooled task;
    only a running slice cannot be interrupted.
    """

    def __init__(self, workers: int, counters: Optional[Dict[str, float]] = None):
        self.workers = max(int(workers), 0)
        self.counters = counters if counters is not None else new_counters()
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover — non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        self._members: List[_Worker] = []
        self._task_ids = 0
        self._close_lock = threading.Lock()
        self._abort = threading.Event()

    # -- process lifecycle --------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
            name="campaign-supervised-worker",
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _ensure_members(self) -> None:
        while len(self._members) < self.workers:
            self._members.append(self._spawn())

    def _discard(self, worker: _Worker) -> None:
        """Kill and forget one worker (its replacement spawns lazily)."""
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(1.0)
            if worker.process.is_alive():  # pragma: no cover — stubborn child
                worker.process.kill()
                worker.process.join(1.0)
        if worker in self._members:
            self._members.remove(worker)

    def _replace(self, worker: _Worker) -> None:
        self._discard(worker)
        self._members.append(self._spawn())
        _bump(self.counters, "respawns")

    def abort(self) -> None:
        """Ask a :meth:`run_tasks` loop in another thread to stop now.

        The supervise loop notices within one wait quantum (on zero
        workers, once the running slice returns), kills its in-flight
        workers, fails every unfinished item as ``aborted`` and returns
        — unblocking a thread stuck on a long batch so the owner can
        :meth:`close`.  Safe to call with no batch running
        (the flag is cleared when the next batch starts).
        """
        self._abort.set()

    def close(self, grace: float = 5.0) -> None:
        """Graceful shutdown: sentinel, bounded join, then terminate.

        Workers drain their current task and exit on the sentinel, so
        caches flush and in-flight telemetry snapshots are not lost;
        only workers still alive after *grace* seconds are terminated.
        Idempotent and thread-safe: repeated or concurrent ``close``
        calls (including with members already dead) are no-ops beyond
        the first — each worker is torn down exactly once.
        """
        with self._close_lock:
            members, self._members = self._members, []
        for worker in members:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        deadline = time.monotonic() + max(grace, 0.0)
        for worker in members:
            worker.process.join(max(deadline - time.monotonic(), 0.0))
        for worker in members:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join(1.0)
            try:
                worker.conn.close()
            except Exception:
                pass

    @property
    def alive(self) -> int:
        return sum(1 for worker in self._members if worker.process.is_alive())

    # -- the supervise loop -------------------------------------------------------

    def run_tasks(
        self,
        run_worker: Callable,
        make_args: Callable[[List[Any]], Tuple[Any, ...]],
        chunks: Sequence[List[Any]],
        policy: SupervisorPolicy,
    ) -> Tuple[List[Tuple[int, int, Any]], List[_Failure]]:
        """Execute every chunk under supervision.

        Returns ``(successes, failures)``: ``successes`` holds
        ``(chunk_index, offset, outcome)`` triples for every completed
        (possibly bisected) slice, ``failures`` one :class:`_Failure`
        per poison item that exhausted its retries.  Policy application
        (quarantine / serial retry / raise) is the caller's job — this
        loop only isolates.
        """
        self._abort.clear()
        pending: List[_Task] = [
            _Task(index, 0, list(chunk)) for index, chunk in enumerate(chunks)
        ]
        successes: List[Tuple[int, int, Any]] = []
        failures: List[_Failure] = []
        in_flight: Dict[int, _Worker] = {}
        warned_unpicklable = False

        def record_terminal(task: _Task, kind: str, error: str, tb: str) -> None:
            """Every item of *task* has terminally failed — one record each."""
            for position, item in enumerate(task.items):
                failures.append(
                    _Failure(
                        chunk_index=task.chunk_index,
                        offset=task.offset + position,
                        item=item,
                        kind=kind,
                        error=error,
                        traceback=tb,
                        attempts=max(task.attempts, 1),
                    )
                )

        def fail_task(task: _Task, kind: str, error: str, tb: str) -> None:
            """Retry, bisect, or record terminal failure for *task*."""
            task.attempts += 1
            task.last_error = (kind, error, tb)
            if kind == "timeout":
                _bump(self.counters, "timeouts")
            elif kind == "worker-death":
                _bump(self.counters, "worker_deaths")
            if task.attempts <= policy.max_retries:
                backoff = policy.backoff_seconds(task.attempts)
                ready_at = time.monotonic() + backoff
                # A retry that could not even start before the batch
                # deadline is no retry at all — fall through to bisect
                # (which dispatches immediately) or terminal failure.
                if policy.deadline is None or ready_at < policy.deadline:
                    _bump(self.counters, "retries")
                    _bump(self.counters, "backoff_seconds", backoff)
                    task.ready_at = ready_at
                    pending.append(task)
                    return
            if len(task.items) > 1 and not policy.expired():
                # Terminal for the chunk, not yet for any item: bisect.
                _bump(self.counters, "bisections")
                middle = len(task.items) // 2
                pending.append(
                    _Task(task.chunk_index, task.offset, task.items[:middle])
                )
                pending.append(
                    _Task(
                        task.chunk_index,
                        task.offset + middle,
                        task.items[middle:],
                    )
                )
                return
            record_terminal(task, kind, error, tb)

        def handle_outcome(task: _Task, outcome: Tuple[str, Any]) -> None:
            status, value = outcome
            if status == "ok":
                successes.append((task.chunk_index, task.offset, value))
            else:
                fail_task(task, value.kind, value.error, value.traceback)

        def encode(task: _Task) -> Optional[bytes]:
            """*task*'s message, pickled once for :meth:`Connection.send_bytes`
            — or None after running it here, in the calling thread: the
            one in-process call site, for a pool of zero workers and for
            a payload that does not pickle, which can reach no worker."""
            nonlocal warned_unpicklable
            args = make_args(task.items)
            if self.workers:
                task_id = self._task_ids = self._task_ids + 1
                try:
                    return ForkingPickler.dumps((task_id, run_worker, args))
                except Exception as exc:
                    _bump(self.counters, "unpicklable_payloads")
                    if not warned_unpicklable:
                        warned_unpicklable = True
                        warn_unpicklable(args, exc)
            handle_outcome(task, guarded_call(run_worker, args))
            return None

        def assign(worker: _Worker, task: _Task, message: bytes) -> None:
            try:
                worker.conn.send_bytes(message)
            except Exception:
                # A broken pipe: the worker died between tasks.  Replace
                # it and put the task back — no attempt consumed.
                self._replace(worker)
                pending.append(task)
                return
            worker.task = task
            attempt_deadline = (
                time.monotonic() + policy.chunk_timeout
                if policy.chunk_timeout is not None
                else None
            )
            if policy.deadline is not None:
                attempt_deadline = (
                    policy.deadline
                    if attempt_deadline is None
                    else min(attempt_deadline, policy.deadline)
                )
            worker.deadline = attempt_deadline
            in_flight[id(worker)] = worker

        def reap(worker: _Worker, kind: str, error: str) -> None:
            """A busy worker died or went overdue: salvage, heal, retry."""
            task = worker.task
            in_flight.pop(id(worker), None)
            # The worker may have finished and died *after* sending: a
            # completed outcome in the pipe still counts.
            salvaged = False
            try:
                if worker.conn.poll(0):
                    _, outcome = worker.conn.recv()
                    salvaged = True
            except Exception:
                salvaged = False
            self._replace(worker)
            if salvaged and task is not None:
                handle_outcome(task, outcome)
            elif task is not None:
                fail_task(task, kind, error, "")

        while pending or in_flight:
            now = time.monotonic()
            # -- abort: another thread asked this batch to stop now -----------
            if self._abort.is_set():
                aborted = sum(len(task.items) for task in pending) + sum(
                    len(worker.task.items)
                    for worker in in_flight.values()
                    if worker.task is not None
                )
                _bump(self.counters, "aborted", aborted)
                for worker in list(in_flight.values()):
                    task = worker.task
                    in_flight.pop(id(worker), None)
                    self._discard(worker)
                    if task is not None:
                        record_terminal(
                            task, "aborted", "batch aborted by pool shutdown", ""
                        )
                for task in pending:
                    record_terminal(
                        task, "aborted", "batch aborted by pool shutdown", ""
                    )
                pending.clear()
                break
            # -- batch deadline: fail undispatched work fast ------------------
            if policy.deadline is not None and now >= policy.deadline and pending:
                _bump(
                    self.counters,
                    "deadline_exhausted",
                    sum(len(task.items) for task in pending),
                )
                for task in pending:
                    record_terminal(
                        task,
                        "timeout",
                        "batch deadline exhausted before dispatch",
                        "",
                    )
                pending.clear()
                if not in_flight:
                    break
            # -- assign ready tasks to idle, healthy workers ------------------
            if pending:
                # A worker that died while idle (OOM-killed, crashed
                # between batches) still occupies a member slot: without
                # this sweep it is never dispatched to and never
                # replaced — silent capacity loss.
                for worker in list(self._members):
                    if worker.task is None and not worker.process.is_alive():
                        _bump(self.counters, "worker_deaths")
                        self._replace(worker)
                idle = [
                    worker
                    for worker in self._members
                    if worker.task is None and worker.process.is_alive()
                ]
                # Each ready task is pickled before a worker is spawned
                # for it: a payload that does not pickle starts none.
                # Zero workers run one ready task per turn, right here.
                slots = len(idle) + self.workers - len(self._members)
                for _ in range(slots if self.workers else 1):
                    ready_index = next(
                        (
                            index
                            for index, task in enumerate(pending)
                            if task.ready_at <= now
                        ),
                        None,
                    )
                    if ready_index is None:
                        break
                    task = pending.pop(ready_index)
                    message = encode(task)
                    if message is None:
                        continue
                    if not idle:
                        self._ensure_members()
                        idle = [
                            worker for worker in self._members if worker.task is None
                        ]
                    assign(idle.pop(0), task, message)

            if not in_flight:
                if pending:
                    # Everything is backing off: sleep until the soonest.
                    delay = max(
                        min(task.ready_at for task in pending) - time.monotonic(),
                        0.0,
                    )
                    time.sleep(min(delay, 0.1))
                continue

            # -- wait for a result, a death, or the next deadline -------------
            wait_timeout = 0.2
            deadlines = [
                worker.deadline
                for worker in in_flight.values()
                if worker.deadline is not None
            ]
            if deadlines:
                wait_timeout = min(
                    wait_timeout, max(min(deadlines) - time.monotonic(), 0.0)
                )
            # Only backoffs still in the future bound the wait: a task
            # that is ready but queued behind busy workers has nothing
            # to wake up for until a result, death or deadline fires —
            # clamping on it would spin the parent and steal CPU from
            # the very workers it is waiting on.
            future_backoffs = [
                task.ready_at for task in pending if task.ready_at > now
            ]
            if future_backoffs:
                wait_timeout = min(
                    wait_timeout, max(min(future_backoffs) - time.monotonic(), 0.0)
                )
            watched = {}
            for worker in in_flight.values():
                watched[worker.conn] = worker
                watched[worker.process.sentinel] = worker
            ready = multiprocessing.connection.wait(
                list(watched), timeout=max(wait_timeout, 0.0)
            )

            seen = set()
            for handle in ready:
                worker = watched[handle]
                if id(worker) in seen or id(worker) not in in_flight:
                    continue
                seen.add(id(worker))
                if handle is worker.conn:
                    task = worker.task
                    try:
                        _, outcome = worker.conn.recv()
                    except (EOFError, OSError):
                        reap(
                            worker,
                            "worker-death",
                            "worker closed its pipe mid-task",
                        )
                        continue
                    worker.task = None
                    worker.deadline = None
                    in_flight.pop(id(worker), None)
                    if task is not None:
                        handle_outcome(task, outcome)
                else:  # the process sentinel fired: the worker is gone
                    code = worker.process.exitcode
                    reap(worker, "worker-death", f"worker died with exitcode {code}")

            # -- deadline sweep ----------------------------------------------
            now = time.monotonic()
            for worker in list(in_flight.values()):
                if worker.deadline is not None and now >= worker.deadline:
                    budget = policy.chunk_timeout
                    description = (
                        f"chunk exceeded its {budget:g}s deadline"
                        if budget is not None
                        else "chunk exceeded the batch deadline"
                    )
                    in_flight.pop(id(worker), None)
                    task = worker.task
                    self._replace(worker)
                    if task is not None:
                        fail_task(task, "timeout", description, "")

        return successes, failures
