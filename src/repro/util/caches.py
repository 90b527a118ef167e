"""Bounded, optionally time-limited mappings for long-lived owners.

A short campaign can treat its memo dictionaries as unbounded — the
process ends before they matter.  A long-lived owner (a
:class:`~repro.session.Session` behind the verdict service, serving
traffic for days) cannot: the resolved-model cache, the repair
cycle-signature memo and the context cache all accumulate entries for
test shapes that will never be queried again.  :class:`BoundedTTLCache`
is the one mapping they share: LRU-bounded by entry count, with an
optional *idle* TTL — an entry unused for ``ttl`` seconds is dropped on
the next access or :meth:`purge` — and eviction/expiry traffic counted
into an owner-supplied :class:`~repro.telemetry.CacheStats` (hits and
misses stay the owner's job, so owners that already count traffic do
not double-count).

The cache is a real :class:`~collections.abc.MutableMapping`, so
drivers that snapshot (``dict(cache)``), merge (``cache.update(...)``)
or probe (``cache.get(key)``) a plain-dict memo work unchanged.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import MutableMapping
from typing import Any, Iterator, Optional

__all__ = ["BoundedTTLCache"]

_MISSING = object()


class BoundedTTLCache(MutableMapping):
    """An LRU mapping bounded by entry count and idle time.

    ``max_entries`` bounds the size (``None`` for unbounded); ``ttl``
    is the idle time-to-live in seconds (``None`` for no expiry) — the
    clock of an entry resets on every read or write, so only entries
    nobody touches age out.  ``stats`` (a
    :class:`~repro.telemetry.CacheStats`) receives one ``evict`` per
    entry shed by either bound, and idle-expired entries *additionally*
    receive one ``expire`` — so a long-lived owner's probe can tell
    capacity pressure from idle aging without the eviction aggregate
    changing shape.
    """

    __slots__ = ("max_entries", "ttl", "_entries", "_stats", "_clock")

    def __init__(
        self,
        max_entries: Optional[int] = None,
        ttl: Optional[float] = None,
        stats: Optional[Any] = None,
        clock=time.monotonic,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._entries: "OrderedDict[Any, list]" = OrderedDict()
        self._stats = stats
        self._clock = clock

    @property
    def stats(self) -> Optional[Any]:
        """The owner-supplied :class:`~repro.telemetry.CacheStats`."""
        return self._stats

    def _evicted(self, amount: int = 1) -> None:
        if self._stats is not None and amount:
            self._stats.evict(amount)

    def _idled_out(self, amount: int = 1) -> None:
        """An idle-TTL expiry: an eviction, attributed as expiry too."""
        if self._stats is not None and amount:
            self._stats.evict(amount)
            expire = getattr(self._stats, "expire", None)
            if expire is not None:
                expire(amount)

    def _expired(self, stamp: float, now: float) -> bool:
        return self.ttl is not None and now - stamp > self.ttl

    def purge(self) -> int:
        """Drop every idle-expired entry now; returns how many went."""
        if self.ttl is None:
            return 0
        now = self._clock()
        stale = [
            key
            for key, (_, stamp) in self._entries.items()
            if self._expired(stamp, now)
        ]
        for key in stale:
            del self._entries[key]
        self._idled_out(len(stale))
        return len(stale)

    def get(self, key: Any, default: Any = None) -> Any:
        """The value of *key*, refreshing its clock, or *default* when
        absent or idle-expired (one lookup: the hot path of the owners)."""
        entry = self._entries.get(key)
        if entry is None:
            return default
        now = self._clock()
        if self._expired(entry[1], now):
            del self._entries[key]
            self._idled_out()
            return default
        entry[1] = now
        self._entries.move_to_end(key)
        return entry[0]

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        self._entries[key] = [value, self._clock()]
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evicted()

    def __delitem__(self, key: Any) -> None:
        del self._entries[key]

    def __iter__(self) -> Iterator[Any]:
        self.purge()
        return iter(list(self._entries))

    def __len__(self) -> int:
        self.purge()
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        if self._expired(entry[1], self._clock()):
            del self._entries[key]
            self._idled_out()
            return False
        return True

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"BoundedTTLCache(entries={len(self._entries)}, "
            f"max_entries={self.max_entries}, ttl={self.ttl})"
        )
