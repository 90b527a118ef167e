"""Dense integer kernel for relations: interning and bitmask rows.

The hot path of the simulator manipulates relations over a *fixed,
small* universe of events (one candidate family shares a single event
set across every rf/co choice).  Instead of frozensets of
``(Event, Event)`` pairs, the kernel assigns each event a dense integer
id and stores a relation as one Python int per source — bit ``j`` of
``rows[i]`` meaning ``(event_i, event_j)``.  Union, intersection,
difference, relational sequence, transitive closure and acyclicity then
become word-parallel bitwise operations; on litmus-sized universes
(tens of events) every row fits a machine word.

Two layers live here:

* module-level row primitives (pure ``list[int]`` in, ``list[int]``
  out) with no knowledge of events;
* :class:`EventIndex`, the interning table mapping a universe of events
  to ids, with precomputed per-thread / per-location / read / write
  masks used by :class:`repro.core.relation.Relation` to answer
  ``internal()``, ``same_location()``, ``restrict()`` etc. without pair
  scans.

:class:`EventIndex` is deliberately duck-typed: any orderable, hashable
node with optional ``thread`` / ``location`` attributes and
``is_read``/``is_write``/``is_init`` predicates can be interned (the
multi-event model interns its per-thread propagation copies).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.events import MemoryRead, MemoryWrite

Rows = Sequence[int]


# ---------------------------------------------------------------------------
# Row primitives
# ---------------------------------------------------------------------------

def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rows_seq(left: Rows, right: Rows) -> List[int]:
    """Relational sequence ``left; right`` on successor rows."""
    out = []
    for row in left:
        targets = 0
        while row:
            low = row & -row
            targets |= right[low.bit_length() - 1]
            row ^= low
        out.append(targets)
    return out


def rows_inverse(rows: Rows) -> List[int]:
    """Transpose: bit ``j`` of ``out[i]`` iff bit ``i`` of ``rows[j]``."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def rows_closure(rows: Rows) -> List[int]:
    """Transitive closure (bit-parallel Warshall: O(n²) word operations)."""
    closure = list(rows)
    for k, row_k in enumerate(closure):
        if not row_k:
            continue
        bit = 1 << k
        for i, row_i in enumerate(closure):
            if row_i & bit:
                closure[i] = row_i | closure[k]
        # closure[k] may have grown through itself; rereads above use the
        # freshest value, and the outer loop guarantees completeness once
        # every intermediate node has been processed.
    return closure


def rows_has_cycle(closure: Rows) -> bool:
    """Does the *closed* relation contain a cycle (a diagonal bit)?"""
    return any((row >> i) & 1 for i, row in enumerate(closure))


def rows_find_cycle(rows: Rows, closure: Optional[Rows] = None) -> Optional[List[int]]:
    """One cycle as ids ``[n0, n1, ..., n0]``, or None.

    Deterministic: starts from the smallest id lying on a cycle and
    returns a BFS-shortest path back to it (ties broken by ascending id).
    """
    if closure is None:
        closure = rows_closure(rows)
    start = next(
        (i for i, row in enumerate(closure) if (row >> i) & 1), None
    )
    if start is None:
        return None
    parent: Dict[int, Optional[int]] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for succ in iter_bits(rows[node]):
            if succ == start:
                path = [node]
                while parent[node] is not None:
                    node = parent[node]  # type: ignore[assignment]
                    path.append(node)
                path.reverse()
                path.append(start)
                return path
            if succ not in parent:
                parent[succ] = node
                queue.append(succ)
    return None  # pragma: no cover - start lies on a cycle by construction


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

class EventIndex:
    """Interning table: a fixed universe of events with dense integer ids.

    The universe is sorted at construction so ids — and therefore every
    enumeration order derived from the kernel — are deterministic.
    """

    __slots__ = (
        "events",
        "ids",
        "n",
        "all_mask",
        "thread_masks",
        "location_masks",
        "internal_masks",
        "same_location_masks",
        "reads_mask",
        "writes_mask",
        "init_mask",
        "_mask_cache",
    )

    def __init__(self, events: Iterable, presorted: bool = False) -> None:
        """Intern *events*.  ``presorted`` skips the sort+dedup when the
        caller guarantees the iterable is already sorted and duplicate-free
        (the enumeration layer builds its universes in event order)."""
        universe = tuple(events) if presorted else tuple(sorted(set(events)))
        self.events = universe
        self.ids = {event: i for i, event in enumerate(universe)}
        self.n = len(universe)
        self.all_mask = (1 << self.n) - 1

        thread_masks: Dict = {}
        location_masks: Dict = {}
        reads_mask = writes_mask = init_mask = 0
        for i, event in enumerate(universe):
            bit = 1 << i
            # Fast path for repro Events (the overwhelmingly common
            # node type): classify through the action directly.
            action = getattr(event, "action", None)
            if type(action) is MemoryRead:
                reads_mask |= bit
                location = action.location
            elif type(action) is MemoryWrite:
                writes_mask |= bit
                location = action.location
            elif action is not None:
                location = getattr(event, "location", None)
            else:  # duck-typed nodes (e.g. multi-event propagation copies)
                location = getattr(event, "location", None)
                is_read = getattr(event, "is_read", None)
                if callable(is_read) and is_read():
                    reads_mask |= bit
                is_write = getattr(event, "is_write", None)
                if callable(is_write) and is_write():
                    writes_mask |= bit
            thread = getattr(event, "thread", None)
            if thread is not None:
                thread_masks[thread] = thread_masks.get(thread, 0) | bit
                if thread == -1:
                    init_mask |= bit
            if location is not None:
                location_masks[location] = location_masks.get(location, 0) | bit
        self.thread_masks = thread_masks
        self.location_masks = location_masks
        self.reads_mask = reads_mask
        self.writes_mask = writes_mask
        self.init_mask = init_mask
        # Per-source masks: events on the same thread / at the same location.
        self.internal_masks = [
            thread_masks.get(getattr(event, "thread", None), 0) for event in universe
        ]
        self.same_location_masks = [
            location_masks.get(loc, 0) if (loc := getattr(event, "location", None)) is not None else 0
            for event in universe
        ]
        self._mask_cache: Dict = {}

    def __contains__(self, event) -> bool:
        return event in self.ids

    def __repr__(self) -> str:
        return f"EventIndex({self.n} events)"

    def __getstate__(self) -> dict:
        # The mask memo is keyed by frozensets of events from the parent
        # process; it is a pure cache, so never ship it across a process
        # boundary — workers rebuild their own as they go.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_mask_cache"
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._mask_cache = {}

    def id_of(self, event) -> int:
        return self.ids[event]

    def mask_of(self, events: Iterable) -> int:
        """Bit mask of the given events (unknown events are skipped).

        Frozensets are memoized: the direction filters (``restrict_ww``
        and friends) pass the same cached event sets over and over.
        """
        if isinstance(events, frozenset):
            cached = self._mask_cache.get(events)
            if cached is not None:
                return cached
        ids = self.ids
        mask = 0
        for event in events:
            i = ids.get(event)
            if i is not None:
                mask |= 1 << i
        if isinstance(events, frozenset):
            self._mask_cache[events] = mask
        return mask

    def events_of(self, mask: int) -> List:
        universe = self.events
        return [universe[i] for i in iter_bits(mask)]

    def rows_of_pairs(self, pairs: Iterable[Tuple]) -> Optional[List[int]]:
        """Successor rows for a pair set, or None if any event is foreign."""
        ids = self.ids
        rows = [0] * self.n
        for src, dst in pairs:
            i = ids.get(src)
            j = ids.get(dst)
            if i is None or j is None:
                return None
            rows[i] |= 1 << j
        return rows

    def order_rows(self, ordered: Sequence) -> List[int]:
        """Rows of the strict total order ``ordered[0] < ordered[1] < ...``."""
        rows = [0] * self.n
        later = 0
        for event in reversed(ordered):
            rows[self.ids[event]] = later
            later |= 1 << self.ids[event]
        return rows

    def pairs_of_rows(self, rows: Rows) -> Iterator[Tuple]:
        universe = self.events
        for i, row in enumerate(rows):
            src = universe[i]
            for j in iter_bits(row):
                yield (src, universe[j])
