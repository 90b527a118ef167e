"""Property tests of the packed relation kernel against pair-set references.

Every relation here is one int over an :class:`EventIndex` (bit
``i·n + j`` for ``(event_i, event_j)``).  Each operation is compared
with the same operation computed in this file on frozensets of pairs,
and closures also with :mod:`repro.util.digraph`.  Universes have 1–21
events (21 is the largest universe in tier-1: a 441-bit int) spread over
up to 4 threads and 3 locations, with reads, writes and init writes.
"""

import pickle
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.bitrel import EventIndex
from repro.core.events import Event, MemoryRead, MemoryWrite
from repro.core.relation import Relation
from repro.util import digraph


@st.composite
def universes(draw):
    size = draw(st.integers(1, 21))
    threads = draw(st.integers(1, 4))
    locations = draw(st.integers(1, 3))
    events = []
    for i in range(size):
        kind = draw(st.sampled_from("RWI"))
        location = f"x{draw(st.integers(0, locations - 1))}"
        action = MemoryRead(location, 0) if kind == "R" else MemoryWrite(location, i)
        thread = -1 if kind == "I" else draw(st.integers(0, threads - 1))
        events.append(Event(thread=thread, poi=i, eid=f"e{i}", action=action))
    return events


def pair_sets(events, max_size=60):
    ids = st.integers(0, len(events) - 1)
    return st.frozensets(st.tuples(ids, ids), max_size=max_size).map(
        lambda pairs: frozenset((events[a], events[b]) for a, b in pairs)
    )


@st.composite
def scenes(draw, relations=2):
    """A universe, its index and *relations* random pair sets over it."""
    events = draw(universes())
    return events, EventIndex(events), [draw(pair_sets(events)) for _ in range(relations)]


def packed(index, pairs):
    return Relation.from_bits(index, index.bits_of_pairs(pairs))


def seq_ref(left, right):
    return frozenset((a, c) for a, b in left for b2, c in right if b == b2)


def plus_ref(pairs):
    closure = frozenset(pairs)
    while True:
        grown = closure | seq_ref(closure, pairs)
        if grown == closure:
            return closure
        closure = grown


def identity_ref(events):
    return frozenset((e, e) for e in events)


def nodes_ref(pairs):
    return {e for pair in pairs for e in pair}


def bfs_cycle(pairs, start):
    """The BFS-shortest cycle through *start*, successors visited in
    ascending order, or None."""
    successors = {}
    for a, b in pairs:
        successors.setdefault(a, []).append(b)
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for succ in sorted(successors.get(node, ())):
            if succ == start:
                path = [start]
                while node is not None:
                    path.append(node)
                    node = parent[node]
                return path[::-1]
            if succ not in parent:
                parent[succ] = node
                queue.append(succ)
    return None


@given(scene=scenes())
@settings(deadline=None)
def test_set_algebra_and_protocol_match_pair_sets(scene):
    events, index, (left, right) = scene
    r1, r2 = packed(index, left), packed(index, right)
    assert (r1 | r2).pairs == left | right
    assert (r1 & r2).pairs == left & right
    assert (r1 - r2).pairs == left - right
    assert len(r1) == len(left)
    assert bool(r1) == bool(left)
    assert all(((a, b) in r1) == ((a, b) in left) for a in events for b in events[:3])
    stranger = Event(thread=9, poi=99, eid="stranger", action=MemoryRead("x0", 0))
    assert (stranger, events[0]) not in r1
    assert (r1 == r2) == (left == right)
    assert r1 == Relation(left)  # another index, equal pairs


@given(scene=scenes())
@settings(deadline=None)
def test_sequence_inverse_and_closures_match_pair_sets(scene):
    events, index, (left, right) = scene
    r1, r2 = packed(index, left), packed(index, right)
    assert r1.seq(r2).pairs == seq_ref(left, right)
    assert r1.inverse().pairs == frozenset((b, a) for a, b in left)
    plus = plus_ref(left)
    assert r1.plus().pairs == plus == digraph.transitive_closure(left)
    some = frozenset(events[::2])
    star = plus | identity_ref(some | nodes_ref(left))
    assert r1.star(some).pairs == star == digraph.reflexive_transitive_closure(left, some)
    assert r1.optional(some).pairs == left | identity_ref(some)


@given(scene=scenes(relations=1), data=st.data())
@settings(deadline=None)
def test_restrictions_match_pair_sets(scene, data):
    events, index, (pairs,) = scene
    relation = packed(index, pairs)
    sources = data.draw(st.frozensets(st.sampled_from(events)))
    targets = data.draw(st.frozensets(st.sampled_from(events)))
    assert relation.restrict(sources, targets).pairs == frozenset(
        (a, b) for a, b in pairs if a in sources and b in targets
    )
    assert relation.restrict(sources).pairs == frozenset(
        (a, b) for a, b in pairs if a in sources
    )
    assert relation.internal().pairs == frozenset(
        (a, b) for a, b in pairs if a.thread == b.thread
    )
    assert relation.external().pairs == frozenset(
        (a, b) for a, b in pairs if a.thread != b.thread
    )
    assert relation.same_location().pairs == frozenset(
        (a, b) for a, b in pairs if a.location == b.location
    )


@given(scene=scenes(relations=1))
@settings(deadline=None)
def test_witnesses_are_the_smallest_and_bfs_shortest(scene):
    events, index, (pairs,) = scene
    relation = packed(index, pairs)
    loops = [a for a, b in pairs if a == b]
    assert relation.first_reflexive() == (min(loops) if loops else None)
    assert relation.is_irreflexive() == (not loops)

    on_cycle = [a for a, b in plus_ref(pairs) if a == b]
    cycle = relation.find_cycle()
    assert relation.is_acyclic() == (not on_cycle) == digraph.is_acyclic(pairs)
    if not on_cycle:
        assert cycle is None
        return
    assert cycle[0] == cycle[-1] == min(on_cycle)
    assert all(step in pairs for step in zip(cycle, cycle[1:]))
    assert cycle == bfs_cycle(pairs, cycle[0])


@given(scene=scenes())
@settings(deadline=None)
def test_operations_across_indexes_match_pair_sets(scene):
    """Hand-built relations intern their own events; operations re-pack
    both operands onto one index."""
    events, index, (left, right) = scene
    own, shared = Relation(left), packed(index, right)
    assert (own | shared).pairs == (shared | own).pairs == left | right
    assert (own | Relation(right)).pairs == left | right
    assert (own & shared).pairs == left & right
    assert (own - shared).pairs == left - right
    assert (shared - own).pairs == right - left
    assert own.seq(shared).pairs == seq_ref(left, right)
    assert shared.seq(own).pairs == seq_ref(right, left)
    universe = frozenset(events)
    assert own.star(universe).pairs == plus_ref(left) | identity_ref(universe)
    assert own.optional(universe).pairs == left | identity_ref(universe)
    assert Relation.empty().star(universe).pairs == identity_ref(universe)


@given(scene=scenes(relations=1))
@settings(deadline=None)
def test_pickle_keeps_pairs_and_drops_the_memo(scene):
    events, index, (pairs,) = scene
    relation = packed(index, pairs)
    relation.plus(), relation.find_cycle(), relation.star(frozenset(events))
    clone = pickle.loads(pickle.dumps(relation))
    assert clone.pairs == pairs
    assert clone._cache is None


def test_the_interned_empty_relation_memoizes_no_event_set():
    """``Relation.empty()`` lives as long as the process: r* and r? over
    ever new event sets must not grow its memo or its index's."""
    empty = Relation.empty()
    for size in range(1, 8):
        universe = frozenset(
            Event(thread=0, poi=i, eid=f"u{size}.{i}", action=MemoryWrite("x", i))
            for i in range(size)
        )
        assert empty.star(universe).pairs == identity_ref(universe)
        assert empty.optional(universe).pairs == identity_ref(universe)
        assert not empty.restrict(universe, universe)
    assert not any(isinstance(key, frozenset) for key in empty._index._mask_cache)
    assert set(empty._cache or ()) <= {"tc", ("rtc", 0)}
