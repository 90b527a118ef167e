"""The circuit breaker between pooled execution and degraded serial mode.

The supervised pool already *survives* worker deaths, hangs and poison
items — but surviving is not free: every incident costs a respawn, a
retry round, or a bisection.  When incidents spike (a poisoned corpus, a
machine under memory pressure killing workers faster than they respawn),
continuing to shard over the pool burns the whole budget on supervision.
The breaker watches the incident *rate* and, past a threshold, routes
execution to a one-worker pool that runs every batch in the service's
own thread, one test per chunk, under the same supervisor policy:
slower per item, but with no processes to die.  After a probe interval
it half-opens — one batch is sent back to the pool as a probe; a clean
probe closes the breaker, an incident re-opens it.

States follow the classic automaton: ``closed`` (pooled execution,
counting incidents), ``open`` (in-process execution, waiting out the
probe interval), ``half-open`` (one pooled probe in flight).  The
breaker is fed from the supervisor counters the campaign layer already
keeps — it adds no new instrumentation to the hot path.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, Optional

from repro import telemetry as _telemetry

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trip to degraded serial mode when supervisor incidents spike.

    ``threshold`` incidents within the sliding ``window`` (seconds) trip
    the breaker open; while open, :meth:`allow_pooled` returns ``False``
    until ``probe_interval`` seconds have passed, then lets exactly one
    batch through as a half-open probe.  The owner reports the probe's
    outcome via :meth:`record_probe`.  Not thread-safe — the service
    drives it from its event loop only.
    """

    def __init__(
        self,
        threshold: int = 4,
        window: float = 30.0,
        probe_interval: float = 5.0,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self.window = window
        self.probe_interval = probe_interval
        self.state = CLOSED
        self.trips = 0
        self._clock = clock
        self._incidents: deque = deque()  # (monotonic stamp, count)
        self._opened_at: Optional[float] = None

    # -- incident accounting ------------------------------------------------------

    def _prune(self, now: float) -> None:
        while self._incidents and now - self._incidents[0][0] > self.window:
            self._incidents.popleft()

    def recent_incidents(self) -> int:
        """Incidents inside the sliding window right now."""
        self._prune(self._clock())
        return sum(count for _, count in self._incidents)

    def record_incidents(self, count: int) -> None:
        """Feed *count* new supervisor incidents (deaths, timeouts,
        quarantines) from the batch that just completed; trips the
        breaker when the windowed total crosses the threshold."""
        now = self._clock()
        self._prune(now)
        if count <= 0:
            return
        self._incidents.append((now, count))
        if self.state == CLOSED and self.recent_incidents() >= self.threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.trips += 1
        self._opened_at = now
        _telemetry.count("service.breaker_trips")
        _telemetry.set_gauge("service.breaker_open", 1)

    # -- routing ------------------------------------------------------------------

    def allow_pooled(self) -> bool:
        """Should the next batch run on the pool?

        ``closed`` — yes.  ``open`` — no, unless the probe interval has
        elapsed, in which case the breaker moves to ``half-open`` and
        this batch becomes the probe.  ``half-open`` — no (a probe is
        already in flight).
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            opened_at = self._opened_at if self._opened_at is not None else 0.0
            if self._clock() - opened_at >= self.probe_interval:
                self.state = HALF_OPEN
                return True
            return False
        return False  # HALF_OPEN: exactly one probe at a time

    def record_probe(self, healthy: bool) -> None:
        """The half-open probe batch finished: close or re-open."""
        if self.state != HALF_OPEN:
            return
        if healthy:
            self.reset()
        else:
            self._trip(self._clock())

    def reset(self) -> None:
        """Back to ``closed`` with a clean window (drain does this)."""
        self.state = CLOSED
        self._incidents.clear()
        self._opened_at = None
        _telemetry.set_gauge("service.breaker_open", 0)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "trips": self.trips,
            "recent_incidents": self.recent_incidents(),
            "threshold": self.threshold,
            "window": self.window,
            "probe_interval": self.probe_interval,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, trips={self.trips}, "
            f"recent={self.recent_incidents()}/{self.threshold})"
        )
