"""Relation algebra over events (the notation of Sec. 4.1).

A :class:`Relation` wraps a binary relation over events and provides the
operators used throughout the paper and the cat language:

====================  =======================================
paper / cat notation  Relation method or operator
====================  =======================================
``r1 ∪ r2`` / ``|``   ``r1 | r2``
``r1 ∩ r2`` / ``&``   ``r1 & r2``
``r1 \\ r2``          ``r1 - r2``
``r1; r2``            ``r1 @ r2``  (or ``r1.seq(r2)``)
``r+``                ``r.transitive_closure()`` (``r.plus()``)
``r*``                ``r.reflexive_transitive_closure(events)`` (``r.star()``)
``r^-1``              ``r.inverse()``
``acyclic(r)``        ``r.is_acyclic()``
``irreflexive(r)``    ``r.is_irreflexive()``
``WR(r)`` etc.        ``r.restrict(writes, reads)`` / helpers in Execution
====================  =======================================

Two representations live behind the one public API:

* **pairs mode** — a frozenset of ``(Event, Event)`` pairs, used for
  ad-hoc relations over arbitrary events;
* **kernel mode** — an :class:`~repro.core.bitrel.EventIndex` plus one
  successor bitmask per source event (see :mod:`repro.core.bitrel`).
  The enumeration engine interns each candidate family's event universe
  once and every derived relation (po, rf, co, ppo, prop, hb, ...) stays
  in the kernel, where union/intersection/sequence/closure/acyclicity
  are word-parallel bitwise operations.

Operators combine two kernel relations over the *same* index in the
kernel; a pairs-mode operand whose events all belong to the index is
re-interned on the fly; anything else falls back to pair sets.  The
``pairs`` view of a kernel relation is materialized lazily.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.core import bitrel
from repro.core.bitrel import EventIndex, iter_bits
from repro.util import digraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.events import Event

Pair = Tuple["Event", "Event"]


#: Sentinel distinguishing "not cached" from a cached ``None`` (find_cycle).
_UNSET = object()


class Relation:
    """An immutable binary relation over events.

    Derived quantities that are expensive to recompute — the transitive
    closure, acyclicity, a witness cycle — are memoized per instance.
    The relation is frozen at construction, so the caches can never go
    stale; repeated model checks over the same execution (the herd
    simulator checks every axiom of every model against the same po/com
    relations) reuse the work instead of re-walking the graph.
    """

    __slots__ = ("_pairs", "_cache", "_index", "_rows")

    def __init__(self, pairs: Iterable[Pair] = ()):
        self._pairs: Optional[FrozenSet[Pair]] = frozenset(pairs)
        self._cache: dict = {}
        self._index: Optional[EventIndex] = None
        self._rows: Optional[Tuple[int, ...]] = None

    # -- constructors ------------------------------------------------------------

    def __getstate__(self) -> tuple:
        # The memo cache (closures, witness cycles) is recomputable and
        # can dwarf the relation itself: drop it when a relation crosses
        # a process boundary (e.g. inside a BMC counterexample shipped
        # back from a campaign worker).
        return (self._pairs, self._index, self._rows)

    def __setstate__(self, state: tuple) -> None:
        self._pairs, self._index, self._rows = state
        self._cache = {}

    @classmethod
    def empty(cls) -> "Relation":
        return _EMPTY

    @classmethod
    def from_rows(cls, index: EventIndex, rows: Iterable[int]) -> "Relation":
        """A kernel-mode relation over *index* with the given successor rows."""
        self = cls.__new__(cls)
        self._pairs = None
        self._cache = {}
        self._index = index
        self._rows = rows if type(rows) is tuple else tuple(rows)
        return self

    @classmethod
    def identity(cls, events: Iterable["Event"]) -> "Relation":
        return cls((e, e) for e in events)

    @classmethod
    def from_order(cls, ordered: Iterable["Event"]) -> "Relation":
        """Total order relation of a sequence: every earlier→later pair."""
        items = list(ordered)
        return cls(
            (items[i], items[j])
            for i in range(len(items))
            for j in range(i + 1, len(items))
        )

    @classmethod
    def cartesian(cls, sources: Iterable["Event"], targets: Iterable["Event"]) -> "Relation":
        targets = list(targets)
        return cls((s, t) for s in sources for t in targets if s != t)

    # -- basic protocol ----------------------------------------------------------

    @property
    def pairs(self) -> FrozenSet[Pair]:
        if self._pairs is None:
            assert self._index is not None and self._rows is not None
            self._pairs = frozenset(self._index.pairs_of_rows(self._rows))
        return self._pairs

    def _rows_in(self, index: EventIndex) -> Optional[Sequence[int]]:
        """This relation's rows re-indexed in *index*, or None if foreign."""
        if self._index is index:
            return self._rows
        return index.rows_of_pairs(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        if self._pairs is None:
            return sum(row.bit_count() for row in self._rows)  # type: ignore[union-attr]
        return len(self._pairs)

    def __bool__(self) -> bool:
        if self._pairs is None:
            return any(self._rows)  # type: ignore[arg-type]
        return bool(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        if self._pairs is None:
            ids = self._index.ids  # type: ignore[union-attr]
            src = ids.get(pair[0])
            dst = ids.get(pair[1])
            if src is None or dst is None:
                return False
            return bool(self._rows[src] >> dst & 1)  # type: ignore[index]
        return pair in self._pairs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            if (
                self._index is not None
                and self._index is other._index
            ):
                return self._rows == other._rows
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Relation({len(self)} pairs)"

    # -- set algebra -------------------------------------------------------------

    def __or__(self, other: "Relation") -> "Relation":
        index = self._index if self._index is not None else other._index
        if index is not None:
            left = self._rows_in(index)
            right = other._rows_in(index) if left is not None else None
            if right is not None:
                return Relation.from_rows(
                    index, tuple(a | b for a, b in zip(left, right))
                )
        return Relation(self.pairs | other.pairs)

    def __and__(self, other: "Relation") -> "Relation":
        index = self._index if self._index is not None else other._index
        if index is not None:
            left = self._rows_in(index)
            right = other._rows_in(index) if left is not None else None
            if right is not None:
                return Relation.from_rows(
                    index, tuple(a & b for a, b in zip(left, right))
                )
        return Relation(self.pairs & other.pairs)

    def __sub__(self, other: "Relation") -> "Relation":
        index = self._index if self._index is not None else other._index
        if index is not None:
            left = self._rows_in(index)
            right = other._rows_in(index) if left is not None else None
            if right is not None:
                return Relation.from_rows(
                    index, tuple(a & ~b for a, b in zip(left, right))
                )
        return Relation(self.pairs - other.pairs)

    def union(self, *others: "Relation") -> "Relation":
        result = self
        for other in others:
            result = result | other
        return result

    def intersection(self, other: "Relation") -> "Relation":
        return self & other

    def difference(self, other: "Relation") -> "Relation":
        return self - other

    # -- relational composition --------------------------------------------------

    def seq(self, other: "Relation") -> "Relation":
        """Relational sequence ``self; other``."""
        index = self._index if self._index is not None else other._index
        if index is not None:
            left = self._rows_in(index)
            if left is not None:
                right = other._rows_in(index)
                if right is not None:
                    return Relation.from_rows(index, bitrel.rows_seq(left, right))
        by_source: dict = {}
        for src, dst in other.pairs:
            by_source.setdefault(src, []).append(dst)
        result: Set[Pair] = set()
        for src, mid in self.pairs:
            for dst in by_source.get(mid, ()):
                result.add((src, dst))
        return Relation(result)

    def __matmul__(self, other: "Relation") -> "Relation":
        return self.seq(other)

    def inverse(self) -> "Relation":
        if self._index is not None:
            return Relation.from_rows(self._index, bitrel.rows_inverse(self._rows))
        return Relation((dst, src) for src, dst in self.pairs)

    def transitive_closure(self) -> "Relation":
        cached = self._cache.get("tc")
        if cached is None:
            if self._index is not None:
                cached = Relation.from_rows(
                    self._index, bitrel.rows_closure(self._rows)
                )
            else:
                cached = Relation(digraph.transitive_closure(self._pairs))
            self._cache["tc"] = cached
        return cached

    def plus(self) -> "Relation":
        """Alias for :meth:`transitive_closure` (the paper's ``r+``)."""
        return self.transitive_closure()

    def reflexive_transitive_closure(self, events: Iterable["Event"] = ()) -> "Relation":
        if self._index is not None:
            index = self._index
            extra = events if isinstance(events, frozenset) else frozenset(events)
            mask = index.mask_of(extra)
            key = ("rtc", mask)
            cached = self._cache.get(key)
            if cached is None:
                closure = bitrel.rows_closure(self._rows)
                nodes = mask
                for i, row in enumerate(self._rows):  # type: ignore[arg-type]
                    if row:
                        nodes |= (1 << i) | row
                cached = Relation.from_rows(
                    index,
                    (
                        row | (1 << i) if nodes >> i & 1 else row
                        for i, row in enumerate(closure)
                    ),
                )
                self._cache[key] = cached
            return cached
        events = frozenset(events)  # materialize once: also the cache key
        key = ("rtc", events)
        cached = self._cache.get(key)
        if cached is None:
            cached = Relation(digraph.reflexive_transitive_closure(self._pairs, events))
            self._cache[key] = cached
        return cached

    def star(self, events: Iterable["Event"] = ()) -> "Relation":
        """Alias for :meth:`reflexive_transitive_closure` (the paper's ``r*``)."""
        return self.reflexive_transitive_closure(events)

    def optional(self, events: Iterable["Event"] = ()) -> "Relation":
        """Reflexive closure ``r?`` (identity over *events* plus r)."""
        if self._index is not None:
            mask = self._index.mask_of(
                events if isinstance(events, frozenset) else frozenset(events)
            )
            return Relation.from_rows(
                self._index,
                (
                    row | (1 << i) if mask >> i & 1 else row
                    for i, row in enumerate(self._rows)  # type: ignore[arg-type]
                ),
            )
        return self | Relation.identity(events)

    # -- restriction -------------------------------------------------------------

    def restrict(
        self,
        sources: Optional[AbstractSet["Event"]] = None,
        targets: Optional[AbstractSet["Event"]] = None,
    ) -> "Relation":
        """Keep pairs whose source/target lie in the given event sets."""
        if self._index is not None:
            index = self._index
            source_mask = index.all_mask if sources is None else index.mask_of(sources)
            target_mask = index.all_mask if targets is None else index.mask_of(targets)
            return Relation.from_rows(
                index,
                (
                    (row & target_mask) if source_mask >> i & 1 else 0
                    for i, row in enumerate(self._rows)  # type: ignore[arg-type]
                ),
            )
        adjacency = self._adjacency()
        result: List[Pair] = []
        for src, dsts in adjacency.items():
            if sources is not None and src not in sources:
                continue
            if targets is not None:
                dsts = dsts & targets
            result.extend((src, dst) for dst in dsts)
        return Relation(result)

    def filter(self, predicate: Callable[["Event", "Event"], bool]) -> "Relation":
        return Relation((s, t) for s, t in self.pairs if predicate(s, t))

    def internal(self) -> "Relation":
        """Pairs whose events belong to the same thread."""
        if self._index is not None:
            masks = self._index.internal_masks
            return Relation.from_rows(
                self._index,
                (row & masks[i] for i, row in enumerate(self._rows)),  # type: ignore[arg-type]
            )
        return self.filter(lambda s, t: s.thread == t.thread)

    def external(self) -> "Relation":
        """Pairs whose events belong to distinct threads."""
        if self._index is not None:
            masks = self._index.internal_masks
            return Relation.from_rows(
                self._index,
                (row & ~masks[i] for i, row in enumerate(self._rows)),  # type: ignore[arg-type]
            )
        return self.filter(lambda s, t: s.thread != t.thread)

    def same_location(self) -> "Relation":
        if self._index is not None:
            masks = self._index.same_location_masks
            return Relation.from_rows(
                self._index,
                (row & masks[i] for i, row in enumerate(self._rows)),  # type: ignore[arg-type]
            )
        return self.filter(
            lambda s, t: s.location is not None and s.location == t.location
        )

    # -- predicates --------------------------------------------------------------

    def is_irreflexive(self) -> bool:
        return self.first_reflexive() is None

    def first_reflexive(self) -> Optional["Event"]:
        """The smallest event related to itself, or None when irreflexive.

        Reporting the smallest keeps witnesses independent of the hash
        order of the pair set.
        """
        if self._index is not None:
            for i, row in enumerate(self._rows):  # type: ignore[arg-type]
                if row >> i & 1:
                    return self._index.events[i]
            return None
        return min((src for src, dst in self._pairs if src == dst), default=None)

    def is_acyclic(self) -> bool:
        if self._index is not None and "cycle" not in self._cache:
            closure = self.transitive_closure()
            return not bitrel.rows_has_cycle(closure._rows)  # type: ignore[arg-type]
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[List["Event"]]:
        cached = self._cache.get("cycle", _UNSET)
        if cached is _UNSET:
            if self._index is not None:
                closure = self.transitive_closure()
                ids = bitrel.rows_find_cycle(self._rows, closure._rows)
                cached = (
                    None
                    if ids is None
                    else [self._index.events[i] for i in ids]
                )
            else:
                cached = digraph.find_cycle(self._pairs)
            self._cache["cycle"] = cached
        return list(cached) if cached is not None else None

    def is_transitive(self) -> bool:
        return self.transitive_closure() == self

    def is_total_over(self, events: Iterable["Event"]) -> bool:
        """True iff the relation totally orders *events* (a strict total order)."""
        events = list(events)
        if not self.is_acyclic():
            return False
        closure = self.transitive_closure()
        for i, left in enumerate(events):
            for right in events[i + 1:]:
                if (left, right) not in closure and (right, left) not in closure:
                    return False
        return True

    # -- projections -------------------------------------------------------------

    def _adjacency(self) -> dict:
        """source -> frozenset of targets (pairs mode; memoized)."""
        adjacency = self._cache.get("adj")
        if adjacency is None:
            grouped: dict = {}
            for src, dst in self.pairs:
                grouped.setdefault(src, []).append(dst)
            adjacency = {src: frozenset(dsts) for src, dsts in grouped.items()}
            self._cache["adj"] = adjacency
        return adjacency

    def _reverse_adjacency(self) -> dict:
        """target -> frozenset of sources (pairs mode; memoized)."""
        adjacency = self._cache.get("radj")
        if adjacency is None:
            grouped: dict = {}
            for src, dst in self.pairs:
                grouped.setdefault(dst, []).append(src)
            adjacency = {dst: frozenset(srcs) for dst, srcs in grouped.items()}
            self._cache["radj"] = adjacency
        return adjacency

    def domain(self) -> FrozenSet["Event"]:
        if self._index is not None:
            mask = 0
            for i, row in enumerate(self._rows):  # type: ignore[arg-type]
                if row:
                    mask |= 1 << i
            return frozenset(self._index.events_of(mask))
        return frozenset(self._adjacency())

    def range(self) -> FrozenSet["Event"]:
        if self._index is not None:
            mask = 0
            for row in self._rows:  # type: ignore[union-attr]
                mask |= row
            return frozenset(self._index.events_of(mask))
        return frozenset(self._reverse_adjacency())

    def events(self) -> FrozenSet["Event"]:
        """Union of domain and range (the paper's ``udr(r)``)."""
        return self.domain() | self.range()

    def successors(self, event: "Event") -> FrozenSet["Event"]:
        if self._index is not None:
            i = self._index.ids.get(event)
            if i is None:
                return frozenset()
            return frozenset(self._index.events_of(self._rows[i]))  # type: ignore[index]
        return self._adjacency().get(event, frozenset())

    def predecessors(self, event: "Event") -> FrozenSet["Event"]:
        if self._index is not None:
            i = self._index.ids.get(event)
            if i is None:
                return frozenset()
            bit = 1 << i
            mask = 0
            for j, row in enumerate(self._rows):  # type: ignore[arg-type]
                if row & bit:
                    mask |= 1 << j
            return frozenset(self._index.events_of(mask))
        return self._reverse_adjacency().get(event, frozenset())

    def to_sorted_list(self) -> List[Pair]:
        """Deterministic listing of the pairs (for display and tests)."""
        return sorted(self.pairs, key=lambda p: (p[0], p[1]))


_EMPTY = Relation()
