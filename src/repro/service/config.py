"""Tunables of the verdict service, all in one frozen record."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the verdict service trades off, with serving defaults.

    Admission: ``max_queue`` bounds the admitted-but-unanswered item
    count — a request that would push past it is shed with ``429`` and
    ``Retry-After: retry_after`` (a draining server sheds with ``503``
    instead) — and ``max_inflight_per_client`` bounds the share any one
    client (identified by its ``X-Client-Id`` header, or its peer
    address absent one) may hold of it, so a greedy batch submitter is
    shed (429, same hint) while polite clients keep being admitted.
    Connections: HTTP/1.1 keep-alive — one connection serves up to
    ``keepalive_max_requests`` requests and is closed after
    ``keepalive_idle_timeout`` seconds without a next request (a
    draining server closes after the in-flight response instead).
    Batching: the dispatcher coalesces compatible queued
    items into campaign chunks of up to ``max_batch`` tests, waiting at
    most ``batch_window`` seconds for stragglers to arrive.  Deadlines:
    a request may carry ``{"deadline": seconds}``; absent one it gets
    ``default_deadline``, and either is clamped to ``max_deadline``.
    Memoization: verdicts (never repairs — reports are strategy-bound)
    are cached across requests keyed by the test's structural
    fingerprint and the model (verdicts do not depend on the engine),
    in an LRU of ``verdict_cache_size`` entries with an idle TTL of
    ``verdict_cache_ttl`` seconds; ``verdict_cache_size=0`` disables
    the cache.  Comparison: ``POST /compare`` sweeps a server-built
    corpus whose event bound is clamped to ``compare_max_events`` and
    whose size is clamped to the ``compare_max_tests`` smallest tests
    (the summary line flags the truncation).
    Degradation: the circuit breaker trips open after
    ``breaker_threshold`` supervisor incidents (worker deaths, chunk
    timeouts, quarantines) within ``breaker_window`` seconds, serves
    serially in-process while open, and half-opens onto a pooled probe
    batch every ``breaker_probe_interval`` seconds.  Shutdown: drain
    stops admitting and gives in-flight work ``drain_window`` seconds
    before aborting the running batch and closing the pool.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    max_queue: int = 256
    max_inflight_per_client: int = 64
    keepalive_max_requests: int = 100
    keepalive_idle_timeout: float = 5.0
    max_batch: int = 16
    batch_window: float = 0.01
    default_deadline: float = 30.0
    max_deadline: float = 300.0
    drain_window: float = 10.0
    retry_after: float = 1.0
    max_body_bytes: int = 1 << 20
    read_timeout: float = 30.0
    breaker_threshold: int = 4
    breaker_window: float = 30.0
    breaker_probe_interval: float = 5.0
    verdict_cache_size: int = 4096
    verdict_cache_ttl: float = 3600.0
    compare_max_events: int = 6
    compare_max_tests: int = 160

    def __post_init__(self):
        positive = (
            "max_queue",
            "max_inflight_per_client",
            "keepalive_max_requests",
            "keepalive_idle_timeout",
            "max_batch",
            "default_deadline",
            "max_deadline",
            "retry_after",
            "max_body_bytes",
            "read_timeout",
            "breaker_threshold",
            "breaker_window",
            "breaker_probe_interval",
            "verdict_cache_ttl",
            "compare_max_tests",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("batch_window", "drain_window"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.verdict_cache_size < 0:
            raise ValueError(
                f"verdict_cache_size must be >= 0 (0 disables), got "
                f"{self.verdict_cache_size}"
            )
        if self.compare_max_events < 4:
            raise ValueError(
                f"compare_max_events must be >= 4 (the smallest critical "
                f"cycle), got {self.compare_max_events}"
            )
        if self.default_deadline > self.max_deadline:
            raise ValueError(
                f"default_deadline ({self.default_deadline}) exceeds "
                f"max_deadline ({self.max_deadline})"
            )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "max_queue": self.max_queue,
            "max_inflight_per_client": self.max_inflight_per_client,
            "keepalive_max_requests": self.keepalive_max_requests,
            "keepalive_idle_timeout": self.keepalive_idle_timeout,
            "max_batch": self.max_batch,
            "batch_window": self.batch_window,
            "default_deadline": self.default_deadline,
            "max_deadline": self.max_deadline,
            "drain_window": self.drain_window,
            "retry_after": self.retry_after,
            "max_body_bytes": self.max_body_bytes,
            "read_timeout": self.read_timeout,
            "breaker_threshold": self.breaker_threshold,
            "breaker_window": self.breaker_window,
            "breaker_probe_interval": self.breaker_probe_interval,
            "verdict_cache_size": self.verdict_cache_size,
            "verdict_cache_ttl": self.verdict_cache_ttl,
            "compare_max_events": self.compare_max_events,
            "compare_max_tests": self.compare_max_tests,
        }
