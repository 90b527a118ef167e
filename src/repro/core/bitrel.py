"""Dense integer kernel for relations: one int per relation.

The hot path of the simulator manipulates relations over a *fixed,
small* universe of events (one candidate family shares a single event
set across every rf/co choice).  The kernel assigns each event of the
universe a dense id and stores a relation over ``n`` events as one
Python int of ``n²`` bits: bit ``i·n + j`` means ``(event_i,
event_j)``, so row ``i`` — the successors of ``event_i`` — is the
``n``-bit field at ``i·n``.  Litmus universes are small (the largest
tier-1 universe has 21 events: a 441-bit int).

On that form union, intersection and difference are one int
operation; a restriction (``internal``, ``same_location``, direction
filters) is one AND with an ``n²``-bit mask; and, with ``COL0`` (bit
``i·n`` for every ``i``) and ``DIAG`` (bit ``i·(n+1)``):

* sequence ``A; B`` adds ``((A >> k) & COL0) * row_k(B)`` for every
  non-empty row ``k`` of ``B`` — the column ``k`` of ``A`` selects the
  rows that reach ``k``, and the product copies ``row_k(B)`` into each;
* Warshall's closure does the same with ``A = B = R`` for ``k`` in
  ``0…n−1``, updating ``R`` in place;
* acyclicity is ``closure & DIAG == 0``.

Two layers live here:

* module-level primitives on packed ints, with no knowledge of events;
* :class:`EventIndex`, the interning table mapping a universe of events
  to ids, with the per-thread / per-location / read / write masks
  :class:`repro.core.relation.Relation` needs to answer ``internal()``,
  ``same_location()``, ``restrict()`` etc. without pair scans.

:class:`EventIndex` is deliberately duck-typed: any orderable, hashable
node with optional ``thread`` / ``location`` attributes and
``is_read``/``is_write``/``is_init`` predicates can be interned (the
multi-event model interns its per-thread propagation copies).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.events import MemoryRead, MemoryWrite


# ---------------------------------------------------------------------------
# Packed-relation primitives
# ---------------------------------------------------------------------------

def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: n -> (COL0, DIAG): bit ``i·n`` resp. ``i·(n+1)`` for every i < n.
_UNIT_MASKS: Dict[int, Tuple[int, int]] = {0: (0, 0)}


def unit_masks(n: int) -> Tuple[int, int]:
    """``(COL0, DIAG)`` of an ``n``-event universe (cached per n)."""
    masks = _UNIT_MASKS.get(n)
    if masks is None:
        # Geometric series: sum of 2^(i·step) for i < n.
        masks = _UNIT_MASKS[n] = (
            ((1 << n * n) - 1) // ((1 << n) - 1),
            ((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1),
        )
    return masks


def spread(mask: int, n: int) -> int:
    """Move bit ``i`` of an event mask to bit ``i·n`` (row ``i``'s base)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (low.bit_length() - 1) * n
        mask ^= low
    return out


def rows(bits: int, n: int) -> List[int]:
    """Decode a packed relation into its ``n`` successor rows."""
    row_mask = (1 << n) - 1
    return [(bits >> i * n) & row_mask for i in range(n)]


def nodes(bits: int, n: int) -> int:
    """Event mask of the relation's domain ∪ range."""
    row_mask = (1 << n) - 1
    out = 0
    i = 0
    while bits:
        row = bits & row_mask
        if row:
            out |= row | 1 << i
        bits >>= n
        i += 1
    return out


def seq(left: int, right: int, n: int, col0: int) -> int:
    """Relational sequence ``left; right``: one multiply per non-empty
    row of *right*."""
    if not left:
        return 0
    row_mask = (1 << n) - 1
    out = 0
    while right:
        k = ((right & -right).bit_length() - 1) // n
        shift = k * n
        row = (right >> shift) & row_mask
        right ^= row << shift
        column = (left >> k) & col0
        if column:
            out |= column * row
    return out


def closure(bits: int, n: int, col0: int) -> int:
    """Transitive closure (Warshall, ``n`` steps of a few int operations)."""
    row_mask = (1 << n) - 1
    for k in range(n):
        column = (bits >> k) & col0
        if column:
            row = (bits >> k * n) & row_mask
            if row:
                bits |= column * row
    return bits


def transpose(bits: int, n: int) -> int:
    """Inverse relation: bit ``j·n + i`` for every set bit ``i·n + j``."""
    out = 0
    while bits:
        low = bits & -bits
        i, j = divmod(low.bit_length() - 1, n)
        out |= 1 << j * n + i
        bits ^= low
    return out


def find_cycle(bits: int, n: int, start: int) -> List[int]:
    """A cycle through *start* as ids ``[start, ..., start]``.

    BFS-shortest, ties broken by ascending id; only the rows it visits
    are decoded.  *start* must lie on a cycle.
    """
    row_mask = (1 << n) - 1
    parent: Dict[int, Optional[int]] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for succ in iter_bits((bits >> node * n) & row_mask):
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
    raise ValueError(f"event {start} lies on no cycle")  # pragma: no cover


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

class EventIndex:
    """Interning table: a fixed universe of events with dense integer ids.

    The universe is sorted at construction so ids — and therefore every
    enumeration order derived from the kernel — are deterministic.  The
    ``n²``-bit masks (same thread, same location, source × target pairs)
    are built on first use: most universes never need all of them.
    """

    __slots__ = (
        "events",
        "ids",
        "n",
        "all_mask",
        "col0",
        "diag",
        "thread_masks",
        "location_masks",
        "reads_mask",
        "writes_mask",
        "init_mask",
        "_internal",
        "_same_location",
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
        self.col0, self.diag = unit_masks(self.n)

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
        self._internal: Optional[int] = None
        self._same_location: Optional[int] = None
        self._mask_cache: Dict = {}

    def __contains__(self, event) -> bool:
        return event in self.ids

    def __repr__(self) -> str:
        return f"EventIndex({self.n} events)"

    def __getstate__(self) -> dict:
        # The masks built on first use and the mask memo (keyed by
        # frozensets of the parent process's events) are pure caches:
        # never ship them across a process boundary — workers rebuild
        # their own as they go.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if not slot.startswith("_")
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._internal = self._same_location = None
        self._mask_cache = {}

    def mask_of(self, events: Iterable) -> int:
        """Bit mask of the given events (unknown events are skipped).

        Frozensets are memoized: the direction filters (``restrict_ww``
        and friends) pass the same cached event sets over and over.  The
        empty universe memoizes nothing — it is shared for the life of
        the process.
        """
        if not self.n:
            return 0
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

    # -- n²-bit masks ----------------------------------------------------------

    def identity(self, mask: int) -> int:
        """The packed identity over the events of *mask*."""
        return (mask * self.col0) & self.diag

    def pair_mask(self, sources: int, targets: int) -> int:
        """Every pair from an event of *sources* to one of *targets*
        (memoized per mask pair)."""
        key = (sources, targets)
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = self._mask_cache[key] = spread(sources, self.n) * targets
        return mask

    def internal_mask(self) -> int:
        """Every pair of events on one thread."""
        if self._internal is None:
            self._internal = self._blocks(self.thread_masks)
        return self._internal

    def same_location_mask(self) -> int:
        """Every pair of events at one location."""
        if self._same_location is None:
            self._same_location = self._blocks(self.location_masks)
        return self._same_location

    def _blocks(self, groups: Dict) -> int:
        n = self.n
        return sum(spread(mask, n) * mask for mask in groups.values())

    # -- packing ----------------------------------------------------------------

    def bits_of_pairs(self, pairs: Iterable[Tuple]) -> Optional[int]:
        """The packed relation of a pair set, or None if any event is foreign."""
        ids = self.ids
        n = self.n
        bits = 0
        for src, dst in pairs:
            i = ids.get(src)
            j = ids.get(dst)
            if i is None or j is None:
                return None
            bits |= 1 << i * n + j
        return bits

    def repack(self, bits: int, source: "EventIndex") -> Optional[int]:
        """A relation packed over *source* re-packed over this index, or
        None if one of its events is foreign here."""
        ids = self.ids
        events = source.events
        m = source.n
        n = self.n
        out = 0
        while bits:
            low = bits & -bits
            i, j = divmod(low.bit_length() - 1, m)
            a = ids.get(events[i])
            b = ids.get(events[j])
            if a is None or b is None:
                return None
            out |= 1 << a * n + b
            bits ^= low
        return out

    def pairs_of(self, bits: int) -> Iterator[Tuple]:
        """The event pairs of a packed relation, in ascending bit order."""
        universe = self.events
        n = self.n
        for p in iter_bits(bits):
            i, j = divmod(p, n)
            yield (universe[i], universe[j])
