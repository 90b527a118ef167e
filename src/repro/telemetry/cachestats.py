"""One hit/miss/eviction interface for every cache of the toolbox.

Every cache — the ILP solve memo (``fences.ilp.cache_stats()``), the
parsed-cat-model cache (``cat.stdlib.cache_stats()``), the Session's
resolved-model cache, the ``ContextCache`` — counts its traffic on one
:class:`CacheStats`: the owning cache calls :meth:`hit`/:meth:`miss`/
:meth:`evict` at the natural points, supplies an ``entries`` callable
so the current size is always live, and every probe renders through
:meth:`as_dict`.

When a telemetry registry is installed (``repro.telemetry.enable()``),
each event is additionally mirrored into the active registry as
``cache.<name>.hits`` / ``.misses`` / ``.evictions`` counters — which is
how *worker-process* cache traffic becomes visible in a merged
``Session.stats()`` tree: the worker's counters ride the per-chunk
snapshot home.  With no registry installed the mirror is a single
``is None`` check per cache event.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

__all__ = ["CacheStats"]


class CacheStats:
    """Hit/miss/eviction counters of one named cache.

    ``expirations`` attributes the *idle-TTL* share of the eviction
    traffic: an entry that aged out counts as both an eviction (the
    historical aggregate every probe already reads) and an expiration,
    so a long-lived owner can tell "the cache is too small" (evictions
    without expirations) from "entries idle out between batches"
    (evictions matched by expirations) straight off ``GET /stats``.
    """

    __slots__ = ("name", "hits", "misses", "evictions", "expirations",
                 "_entries", "_hit_key", "_miss_key", "_evict_key",
                 "_expire_key")

    def __init__(self, name: str, entries: Optional[Callable[[], int]] = None):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self._entries = entries
        self._hit_key = f"cache.{name}.hits"
        self._miss_key = f"cache.{name}.misses"
        self._evict_key = f"cache.{name}.evictions"
        self._expire_key = f"cache.{name}.expirations"

    # The guards read repro.telemetry's module-level registry directly:
    # a cache event while telemetry is disabled costs one attribute load
    # and one `is None` test beyond the local increment.

    def hit(self, amount: int = 1) -> None:
        self.hits += amount
        registry = _active()
        if registry is not None:
            registry.count(self._hit_key, amount)

    def miss(self, amount: int = 1) -> None:
        self.misses += amount
        registry = _active()
        if registry is not None:
            registry.count(self._miss_key, amount)

    def evict(self, amount: int = 1) -> None:
        self.evictions += amount
        registry = _active()
        if registry is not None:
            registry.count(self._evict_key, amount)

    def expire(self, amount: int = 1) -> None:
        """Count *amount* idle-TTL expirations (also counted as
        evictions by the owner — see the class docstring)."""
        self.expirations += amount
        registry = _active()
        if registry is not None:
            registry.count(self._expire_key, amount)

    @property
    def entries(self) -> int:
        """Live entry count (0 when the owner supplied no counter)."""
        return self._entries() if self._entries is not None else 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.total
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def as_dict(self) -> Dict[str, int]:
        """The uniform probe shape of every cache."""
        return {
            "name": self.name,
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats({self.name!r}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


_TELEMETRY = None


def _active():
    # Lazy module memo: `repro.telemetry` imports this module, so the
    # reverse reference resolves on first use instead of at import time.
    global _TELEMETRY
    if _TELEMETRY is None:
        from repro import telemetry as _module

        _TELEMETRY = _module
    return _TELEMETRY._ACTIVE
