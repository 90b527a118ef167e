"""Supervised campaign execution: the one pool, deadlines, retries, quarantine.

A bare process pool has production-hostile failure modes: a worker
killed by the OOM killer (or a segfault in a native extension) silently
loses its in-flight task and the batch wedges forever; an exception
whose instance cannot be pickled kills the pool's result machinery; a
runaway job (an ILP branch-and-bound that never bounds) hangs the whole
campaign.  Large hardware-testing campaigns are exactly where partial
failure is routine, so every supervised batch of
:mod:`repro.campaign.runner` runs on one class, :class:`CampaignPool`,
whose **supervise loop** sits between the chunked batch and the OS
processes (or, on a one-worker pool, the calling thread):

* The pool manages raw ``multiprocessing.Process`` workers over duplex
  pipes, started with its first batch and kept warm across batches.
  The parent waits on connections *and* process sentinels, so a dying
  worker is detected the instant the OS reaps it — the task is
  rescheduled and a fresh worker is spawned in its place (the pool
  **self-heals** instead of wedging).
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
  default, :data:`DEFAULT_POLICY`, with no retry and no deadline).
* :meth:`CampaignPool.abort` fails the unfinished items of the running
  batch (or of the next one) as ``aborted``.

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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import telemetry as _telemetry
from repro.report import JsonReportMixin

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_POLICY",
    "CampaignPicklingWarning",
    "CampaignPool",
    "ErrorEnvelope",
    "ErrorRing",
    "FailedItem",
    "PoisonItemError",
    "SupervisorPolicy",
    "item_label",
    "new_counters",
    "worker_count",
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
      if it fails again, quarantine it.  Aborted items, and any item
      once the batch deadline has passed, are not re-run;
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


#: Default number of jobs per shard; small enough to balance uneven job
#: costs, large enough to amortize pickling and scheduling.
DEFAULT_CHUNK_SIZE = 8

#: The policy of a pool (or a multi-worker batch) that names none: no
#: deadline and no retry, so a healthy batch runs exactly as on a bare
#: process pool, but a chunk whose worker crashes or raises is bisected
#: down to its item and the batch raises :class:`PoisonItemError`
#: instead of hanging.
DEFAULT_POLICY = SupervisorPolicy(on_error="raise", max_retries=0)

Processes = Union[None, int, str]


def worker_count(processes: Processes = None) -> int:
    """Resolve a ``processes`` argument to an effective worker count.

    ``None``, ``0`` and ``1`` mean serial; ``"auto"`` means one worker
    per CPU core (which on a single-core machine is again serial).
    """
    if processes in (None, 0, 1):
        return 1
    if processes == "auto":
        return os.cpu_count() or 1
    count = int(processes)  # type: ignore[arg-type]
    if count < 0:
        raise ValueError(f"negative worker count: {processes!r}")
    return max(count, 1)


class CampaignPool:
    """The one executor of supervised batches: self-healing workers.

    The pool's processes start with its first batch and survive between
    batches, so the per-process warm state built by
    :mod:`repro.campaign.jobs` (a context cache) carries over from one
    batch to the next — exactly what escalation loops and repeated model
    comparisons want.  Dead or overdue workers are replaced on the spot.
    With an effective worker count of one the pool spawns nothing:
    :meth:`run_tasks` runs each ready task in the calling thread, one
    slice per loop turn, under the same retry, bisection, deadline and
    abort checks as a pooled task; only a running slice cannot be
    interrupted.

    ``policy`` (default :data:`DEFAULT_POLICY`) is the default of every
    batch on this pool.  ``counters`` (a :func:`new_counters` dict;
    fresh unless given — a :class:`~repro.session.Session` hands one
    dict to every pool it builds) accumulates the supervision events
    across batches, worker respawns and restarts.

    :meth:`abort` stops the running batch, or the next one if none
    runs; :meth:`close` shuts the workers down, and a later batch starts
    them again.  Use as a context manager::

        with CampaignPool("auto") as pool:
            first = pool.run(worker, jobs_a, payload=...)
            second = pool.run(worker, jobs_b, payload=...)
    """

    def __init__(
        self,
        processes: Processes = "auto",
        policy: Optional[SupervisorPolicy] = None,
        counters: Optional[Dict[str, float]] = None,
    ):
        self.workers = worker_count(processes)
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self.counters = counters if counters is not None else new_counters()
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover — non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        self._members: List[_Worker] = []
        self._task_ids = 0
        self._close_lock = threading.Lock()
        self._abort = threading.Event()

    def __enter__(self) -> "CampaignPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        """Abort the batch running on this pool, or else the next one.

        Thread-safe: meant for a watchdog (the verdict service's overdue
        drain) while another thread is blocked inside :meth:`run`.  The
        request stays pending until a batch acts on it or :meth:`close`
        runs.  The supervise loop notices it within one wait quantum (in
        this process, once the running slice returns), kills its
        in-flight workers, fails every unfinished item as ``aborted``
        and returns.
        """
        self._abort.set()

    def close(self, grace: Optional[float] = None) -> None:
        """Drain and shut down the workers, gracefully then forcefully.

        Workers get *grace* seconds (default: the policy's) to finish
        their in-flight chunk and exit on the sentinel, so caches flush
        and in-flight telemetry snapshots are not lost; stragglers are
        terminated.  A pending :meth:`abort` is dropped, the counters
        are kept, and a later batch starts the workers again.

        Idempotent and thread-safe: repeated or concurrent ``close``
        calls — including after a worker has already died — tear each
        worker down exactly once, so every shutdown path (``__exit__``,
        a service drain, an ``atexit`` hook) may call it without
        coordinating.
        """
        with self._close_lock:
            members, self._members = self._members, []
            # A batch still running keeps (and acts on) the flag it
            # started with; the next batch starts with a fresh one.
            self._abort = threading.Event()
        for worker in members:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        deadline = time.monotonic() + max(
            self.policy.grace if grace is None else grace, 0.0
        )
        for worker in members:
            worker.process.join(max(deadline - time.monotonic(), 0.0))
        for worker in members:
            self._discard(worker)

    @property
    def alive(self) -> int:
        return sum(1 for worker in self._members if worker.process.is_alive())

    def stats(self) -> Dict[str, float]:
        """A copy of the supervision counters (zeros when never used)."""
        return dict(self.counters)

    def run(
        self,
        worker: Callable[[List[Any], Any], Any],
        jobs: Sequence[Any],
        *,
        payload: Any = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        merge: Optional[Callable[[Any], None]] = None,
        policy: Optional[SupervisorPolicy] = None,
        errors: Optional[List[FailedItem]] = None,
    ) -> List[Any]:
        """:func:`~repro.campaign.runner.run_sharded` on this pool."""
        from repro.campaign.runner import run_sharded

        return run_sharded(
            worker,
            jobs,
            payload=payload,
            chunk_size=chunk_size,
            merge=merge,
            pool=self,
            policy=policy,
            errors=errors,
        )

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
        loop only isolates.  A pending :meth:`abort` aborts this batch.
        """
        abort = self._abort
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
            one in-process call site, for a one-worker pool and for a
            payload that does not pickle, which can reach no worker."""
            nonlocal warned_unpicklable
            args = make_args(task.items)
            if self.workers > 1:
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
            if abort.is_set():
                abort.clear()
                for worker in in_flight.values():
                    self._discard(worker)
                stopped = [worker.task for worker in in_flight.values()] + pending
                _bump(self.counters, "aborted", sum(len(task.items) for task in stopped))
                for task in stopped:
                    record_terminal(
                        task, "aborted", "batch aborted by pool shutdown", ""
                    )
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
                # A one-worker pool (no members, one slot) runs one ready
                # task per turn, right here.
                slots = len(idle) + self.workers - len(self._members)
                for _ in range(slots):
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
