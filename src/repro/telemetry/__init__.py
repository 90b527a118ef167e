"""``repro.telemetry`` — spans, counters and engine statistics.

A dependency-free instrumentation layer with one process-global switch:

* :class:`Metrics` (:mod:`repro.telemetry.metrics`) is the registry —
  counters, gauges, histogram timers with p50/p99 read-outs, and a
  ``span(name, **tags)`` context manager producing structured trace
  events into a bounded ring buffer.  Snapshots are picklable and
  mergeable, which is how campaign workers report home; they render as
  JSONL and as a human-readable table via the uniform
  :class:`repro.report.Report` protocol.
* :class:`CacheStats` (:mod:`repro.telemetry.cachestats`) is the one
  hit/miss/eviction interface every cache of the toolbox implements —
  the context cache, the Session's resolved-model cache, the fence
  cycle memo, the ILP solve memo and the parsed-cat-model cache.
* This module owns the **active registry**: ``enable()`` installs one
  (process-global, like the root logger), ``disable()`` removes it, and
  the module-level verbs (:func:`count`, :func:`observe`, :func:`span`,
  :func:`timer`, ...) forward to it — or, while none is installed,
  short-circuit to no-ops.

The zero-telemetry path is the default and must stay overhead-free: the
instrumented layers guard every emission with :func:`enabled` (or read
``_ACTIVE`` directly), accumulate hot-loop statistics in local integers
and report once per walk, so a disabled process pays one ``is None``
test per *walk*, not per event.  ``benchmarks/bench_telemetry_overhead.py``
pins this.

Usage::

    from repro import Session

    with Session(model="power", telemetry=True) as session:
        session.repair(tests)
        print(session.stats()["telemetry"]["counters"]["engine.explored"])

    # or standalone, without a session:
    from repro import telemetry

    registry = telemetry.enable()
    ... run anything ...
    print(registry.snapshot().describe())
    registry.export_jsonl("trace.jsonl")
    telemetry.disable()
"""

from __future__ import annotations

from typing import Any, Optional

from repro.telemetry.cachestats import CacheStats
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    MetricsSnapshot,
    SpanEvent,
)

__all__ = [
    "CacheStats",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "MetricsSnapshot",
    "SpanEvent",
    "active",
    "count",
    "disable",
    "enable",
    "enabled",
    "observe",
    "set_gauge",
    "span",
    "timer",
]

#: The process-global active registry, or None while telemetry is off.
#: Read directly (``telemetry._ACTIVE is not None``) by hot-path guards.
_ACTIVE: Optional[Metrics] = None


def enabled() -> bool:
    """Is a registry installed?  The cheap guard every emission checks."""
    return _ACTIVE is not None


def active() -> Optional[Metrics]:
    """The installed registry, or None."""
    return _ACTIVE


def enable(metrics: Optional[Metrics] = None) -> Metrics:
    """Install *metrics* (or a fresh registry) as the active registry.

    Process-global and last-write-wins, exactly like configuring the
    root logger.  Returns the installed registry.  ``Session(...,
    telemetry=True)`` calls this with the session's own registry.
    """
    global _ACTIVE
    if metrics is None:
        metrics = Metrics()
    _ACTIVE = metrics
    return metrics


def disable() -> Optional[Metrics]:
    """Uninstall the active registry (returning it, for a final read)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def _swap(metrics: Optional[Metrics]) -> Optional[Metrics]:
    """Install *metrics* (which may be None), returning the previous
    registry — the campaign runtime brackets chunk execution with this."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = metrics
    return previous


# -- guarded module-level verbs (no-ops while disabled) -------------------------


class _NullContext:
    """The shared do-nothing context manager of the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_CONTEXT = _NullContext()


def count(name: str, amount: int = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.count(name, amount)


def observe(name: str, value: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.set_gauge(name, value)


def span(name: str, **tags: Any):
    """A trace-event context manager, or a shared no-op when disabled."""
    if _ACTIVE is not None:
        return _ACTIVE.span(name, **tags)
    return _NULL_CONTEXT


def timer(name: str):
    """A histogram-timer context manager, or a shared no-op when disabled."""
    if _ACTIVE is not None:
        return _ACTIVE.timer(name)
    return _NULL_CONTEXT
