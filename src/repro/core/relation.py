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

Every relation has one representation: an
:class:`~repro.core.bitrel.EventIndex` and one ``n²``-bit int over it
(bit ``i·n + j`` means ``(event_i, event_j)``, see
:mod:`repro.core.bitrel`).  The enumeration engine interns each
candidate family's event universe once, and every derived relation (po,
rf, co, ppo, prop, hb, ...) stays on that index, where set algebra is
one int operation and sequence, closure and acyclicity are a few per
event.  A relation built from pairs (``Relation(pairs)``,
:meth:`~Relation.identity`, :meth:`~Relation.from_order`,
:meth:`~Relation.cartesian`) interns its own events; an operation on
two relations over different indexes re-packs both onto one index
covering them.  The ``pairs`` view is built on demand, for witnesses
and printing.
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
    Tuple,
    TYPE_CHECKING,
)

from repro.core import bitrel
from repro.core.bitrel import EventIndex, iter_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.events import Event

Pair = Tuple["Event", "Event"]


#: Sentinel distinguishing "not cached" from a cached ``None`` (find_cycle).
_UNSET = object()

#: The universe of the empty relation ``Relation()``.
_NO_EVENTS = EventIndex(())


def _make(index: EventIndex, bits: int) -> "Relation":
    """The relation packed as *bits* over *index*."""
    relation = object.__new__(Relation)
    relation._index = index
    relation._bits = bits
    relation._pairs = None
    relation._cache = None
    return relation


class Relation:
    """An immutable binary relation over events.

    Derived quantities that are expensive to recompute — the transitive
    closure, a witness cycle, ``r*`` over an event set — are memoized
    per instance, in a memo created on first use.  The relation is
    frozen at construction, so the memo can never go stale; repeated
    model checks over the same execution (the herd simulator checks
    every axiom of every model against the same po/com relations) reuse
    the work instead of re-walking the graph.
    """

    __slots__ = ("_index", "_bits", "_pairs", "_cache")

    def __init__(self, pairs: Iterable[Pair] = ()):
        pairs = frozenset(pairs)
        index = EventIndex(e for pair in pairs for e in pair) if pairs else _NO_EVENTS
        self._index = index
        self._bits: int = index.bits_of_pairs(pairs)  # type: ignore[assignment]
        self._pairs: Optional[FrozenSet[Pair]] = pairs
        self._cache: Optional[dict] = None

    # -- constructors ------------------------------------------------------------

    def __getstate__(self) -> tuple:
        # The pairs view and the memo (closures, witness cycles) are
        # recomputable and can dwarf the relation itself: drop them when
        # a relation crosses a process boundary (e.g. inside a BMC
        # counterexample shipped back from a campaign worker).
        return (self._index, self._bits)

    def __setstate__(self, state: tuple) -> None:
        self._index, self._bits = state
        self._pairs = None
        self._cache = None

    @classmethod
    def empty(cls) -> "Relation":
        return _EMPTY

    from_bits = staticmethod(_make)

    @classmethod
    def identity(cls, events: Iterable["Event"]) -> "Relation":
        index = EventIndex(events)
        return _make(index, index.identity(index.all_mask))

    @classmethod
    def from_order(cls, ordered: Iterable["Event"]) -> "Relation":
        """Total order relation of a sequence: every earlier→later pair."""
        items = list(ordered)
        index = EventIndex(items)
        n = index.n
        bits = later = 0
        for event in reversed(items):
            i = index.ids[event]
            bits |= later << i * n
            later |= 1 << i
        return _make(index, bits)

    @classmethod
    def cartesian(cls, sources: Iterable["Event"], targets: Iterable["Event"]) -> "Relation":
        sources, targets = list(sources), list(targets)
        index = EventIndex(sources + targets)
        pairs = index.pair_mask(index.mask_of(sources), index.mask_of(targets))
        return _make(index, pairs & ~index.diag)

    # -- basic protocol ----------------------------------------------------------

    @property
    def pairs(self) -> FrozenSet[Pair]:
        if self._pairs is None:
            self._pairs = frozenset(self._index.pairs_of(self._bits))
        return self._pairs

    def _bits_in(self, index: EventIndex) -> Optional[int]:
        """This relation re-packed over *index*, or None if foreign."""
        if self._index is index:
            return self._bits
        return index.repack(self._bits, self._index)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __contains__(self, pair: Pair) -> bool:
        index = self._index
        src = index.ids.get(pair[0])
        dst = index.ids.get(pair[1])
        if src is None or dst is None:
            return False
        return bool(self._bits >> src * index.n + dst & 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            if self._index is other._index or not self._bits or not other._bits:
                return self._bits == other._bits
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Relation({len(self)} pairs)"

    def _memo(self) -> dict:
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        return cache

    # -- set algebra -------------------------------------------------------------

    def __or__(self, other: "Relation") -> "Relation":
        index = self._index
        if other._index is not index:
            # The interned empty relation meets every index: union with
            # it is the other operand.
            if not other._bits:
                return self
            if not self._bits:
                return other
            index, (left, right) = common_bits(self, other)
            return _make(index, left | right)
        return _make(index, self._bits | other._bits)

    def __and__(self, other: "Relation") -> "Relation":
        index = self._index
        if other._index is not index:
            index, (left, right) = common_bits(self, other)
            return _make(index, left & right)
        return _make(index, self._bits & other._bits)

    def __sub__(self, other: "Relation") -> "Relation":
        index = self._index
        if other._index is not index:
            index, (left, right) = common_bits(self, other)
            return _make(index, left & ~right)
        return _make(index, self._bits & ~other._bits)

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
        index = self._index
        if other._index is not index:
            index, (left, right) = common_bits(self, other)
        else:
            left, right = self._bits, other._bits
        return _make(index, bitrel.seq(left, right, index.n, index.col0))

    def __matmul__(self, other: "Relation") -> "Relation":
        return self.seq(other)

    def inverse(self) -> "Relation":
        index = self._index
        return _make(index, bitrel.transpose(self._bits, index.n))

    def transitive_closure(self) -> "Relation":
        cache = self._memo()
        closed = cache.get("tc")
        if closed is None:
            index = self._index
            closed = cache["tc"] = _make(
                index, bitrel.closure(self._bits, index.n, index.col0)
            )
        return closed

    def plus(self) -> "Relation":
        """Alias for :meth:`transitive_closure` (the paper's ``r+``)."""
        return self.transitive_closure()

    def reflexive_transitive_closure(self, events: Iterable["Event"] = ()) -> "Relation":
        """``r*``: ``r+`` plus the identity over *events* and the
        relation's own events."""
        events = events if isinstance(events, frozenset) else frozenset(events)
        index = self._index
        mask = index.mask_of(events)
        if mask.bit_count() < len(events):
            return self._covering(events).reflexive_transitive_closure(events)
        cache = self._memo()
        key = ("rtc", mask)
        cached = cache.get(key)
        if cached is None:
            n = index.n
            cached = cache[key] = _make(
                index,
                self.transitive_closure()._bits
                | index.identity(mask | bitrel.nodes(self._bits, n)),
            )
        return cached

    def star(self, events: Iterable["Event"] = ()) -> "Relation":
        """Alias for :meth:`reflexive_transitive_closure` (the paper's ``r*``)."""
        return self.reflexive_transitive_closure(events)

    def optional(self, events: Iterable["Event"] = ()) -> "Relation":
        """Reflexive closure ``r?`` (identity over *events* plus r)."""
        events = events if isinstance(events, frozenset) else frozenset(events)
        index = self._index
        mask = index.mask_of(events)
        if mask.bit_count() < len(events):
            return self._covering(events).optional(events)
        return _make(index, self._bits | index.identity(mask))

    def _covering(self, events: FrozenSet["Event"]) -> "Relation":
        """This relation re-packed over an index that also holds *events*."""
        index = EventIndex(events.union(self._index.events))
        return _make(index, index.repack(self._bits, self._index))  # type: ignore[arg-type]

    # -- restriction -------------------------------------------------------------

    def restrict(
        self,
        sources: Optional[AbstractSet["Event"]] = None,
        targets: Optional[AbstractSet["Event"]] = None,
    ) -> "Relation":
        """Keep pairs whose source/target lie in the given event sets."""
        if not self._bits:
            return self
        index = self._index
        source_mask = index.all_mask if sources is None else index.mask_of(sources)
        target_mask = index.all_mask if targets is None else index.mask_of(targets)
        return _make(index, self._bits & index.pair_mask(source_mask, target_mask))

    def filter(self, predicate: Callable[["Event", "Event"], bool]) -> "Relation":
        index = self._index
        events = index.events
        bits = 0
        for p in iter_bits(self._bits):
            i, j = divmod(p, index.n)
            if predicate(events[i], events[j]):
                bits |= 1 << p
        return _make(index, bits)

    def internal(self) -> "Relation":
        """Pairs whose events belong to the same thread."""
        if not self._bits:
            return self
        return _make(self._index, self._bits & self._index.internal_mask())

    def external(self) -> "Relation":
        """Pairs whose events belong to distinct threads."""
        if not self._bits:
            return self
        return _make(self._index, self._bits & ~self._index.internal_mask())

    def same_location(self) -> "Relation":
        if not self._bits:
            return self
        return _make(self._index, self._bits & self._index.same_location_mask())

    # -- predicates --------------------------------------------------------------

    def is_irreflexive(self) -> bool:
        return not self._bits & self._index.diag

    def first_reflexive(self) -> Optional["Event"]:
        """The smallest event related to itself, or None when irreflexive.

        Reporting the smallest keeps witnesses independent of hash order.
        """
        index = self._index
        loops = self._bits & index.diag
        if not loops:
            return None
        return index.events[((loops & -loops).bit_length() - 1) // (index.n + 1)]

    def is_acyclic(self) -> bool:
        return not self.transitive_closure()._bits & self._index.diag

    def find_cycle(self) -> Optional[List["Event"]]:
        """One cycle ``[e0, e1, ..., e0]``, or None when acyclic.

        Deterministic: it starts from the smallest event lying on a
        cycle and follows a BFS-shortest path back to it, ties broken
        by ascending event.
        """
        cache = self._memo()
        cached = cache.get("cycle", _UNSET)
        if cached is _UNSET:
            index = self._index
            loops = self.transitive_closure()._bits & index.diag
            cached = None
            if loops:
                n = index.n
                start = ((loops & -loops).bit_length() - 1) // (n + 1)
                events = index.events
                cached = [events[i] for i in bitrel.find_cycle(self._bits, n, start)]
            cache["cycle"] = cached
        return list(cached) if cached is not None else None

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

    def domain(self) -> FrozenSet["Event"]:
        index = self._index
        mask = 0
        for i, row in enumerate(bitrel.rows(self._bits, index.n)):
            if row:
                mask |= 1 << i
        return frozenset(index.events_of(mask))

    def range(self) -> FrozenSet["Event"]:
        mask = 0
        for row in bitrel.rows(self._bits, self._index.n):
            mask |= row
        return frozenset(self._index.events_of(mask))

    def events(self) -> FrozenSet["Event"]:
        """Union of domain and range (the paper's ``udr(r)``)."""
        index = self._index
        return frozenset(index.events_of(bitrel.nodes(self._bits, index.n)))

    def successors(self, event: "Event") -> FrozenSet["Event"]:
        index = self._index
        i = index.ids.get(event)
        if i is None:
            return frozenset()
        return frozenset(index.events_of((self._bits >> i * index.n) & index.all_mask))

    def predecessors(self, event: "Event") -> FrozenSet["Event"]:
        index = self._index
        j = index.ids.get(event)
        if j is None:
            return frozenset()
        column = (self._bits >> j) & index.col0
        return frozenset(index.events[p // index.n] for p in iter_bits(column))

    def to_sorted_list(self) -> List[Pair]:
        """Deterministic listing of the pairs (for display and tests)."""
        return sorted(self.pairs, key=lambda p: (p[0], p[1]))


def common_bits(*relations: Relation) -> Tuple[EventIndex, List[int]]:
    """One index covering every relation's pairs, and each one's bits on it.

    The engines keep every relation on one index.  Otherwise the index
    of a non-empty operand hosts the others when it holds their events,
    and relations built by hand over different events meet on a merged
    index.
    """
    index = relations[0]._index
    if all(r._index is index for r in relations):
        return index, [r._bits for r in relations]
    live = [r for r in relations if r._bits] or [
        max(relations, key=lambda r: r._index.n)
    ]
    for host in live:
        index = host._index
        packed = [r._bits_in(index) for r in relations]
        if None not in packed:
            return index, packed  # type: ignore[return-value]
    index = EventIndex(event for r in live for event in r._index.events)
    return index, [r._bits_in(index) for r in relations]  # type: ignore[misc]


_EMPTY = Relation()
