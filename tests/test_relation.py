"""Unit and property tests for the relation algebra."""

from hypothesis import given, settings, strategies as st

from repro.core.events import Event, MemoryRead, MemoryWrite
from repro.core.relation import Relation


def _events(count):
    return [
        Event(thread=i % 2, poi=i, eid=f"e{i}", action=MemoryWrite("x", i))
        for i in range(count)
    ]


EVENTS = _events(6)


def _relation(pairs):
    return Relation((EVENTS[a], EVENTS[b]) for a, b in pairs)


def test_union_intersection_difference():
    r1 = _relation([(0, 1), (1, 2)])
    r2 = _relation([(1, 2), (2, 3)])
    assert (EVENTS[0], EVENTS[1]) in (r1 | r2)
    assert len(r1 | r2) == 3
    assert (r1 & r2) == _relation([(1, 2)])
    assert (r1 - r2) == _relation([(0, 1)])


def test_sequence_composition():
    r1 = _relation([(0, 1), (2, 3)])
    r2 = _relation([(1, 2), (3, 4)])
    assert (r1 @ r2) == _relation([(0, 2), (2, 4)])


def test_inverse():
    r = _relation([(0, 1), (1, 2)])
    assert r.inverse() == _relation([(1, 0), (2, 1)])


def test_transitive_closure_and_star():
    r = _relation([(0, 1), (1, 2)])
    plus = r.plus()
    assert (EVENTS[0], EVENTS[2]) in plus
    star = r.star(EVENTS[:3])
    assert (EVENTS[0], EVENTS[0]) in star
    assert (EVENTS[0], EVENTS[2]) in star


def test_star_accepts_one_shot_iterables_and_memoizes():
    r = _relation([(0, 1)])
    star = r.star(iter(EVENTS[:3]))  # a generator must not be half-consumed
    for event in EVENTS[:3]:
        assert (event, event) in star
    assert r.star(EVENTS[:3]) == star  # cached result, same universe
    assert r.plus() is r.plus()  # closure memoized per instance


def test_acyclicity_and_irreflexivity():
    acyclic = _relation([(0, 1), (1, 2)])
    cyclic = _relation([(0, 1), (1, 0)])
    reflexive = _relation([(0, 0)])
    assert acyclic.is_acyclic() and acyclic.is_irreflexive()
    assert not cyclic.is_acyclic()
    assert cyclic.is_irreflexive()
    assert not reflexive.is_irreflexive()
    assert not reflexive.is_acyclic()


def test_internal_external_split():
    read = Event(thread=0, poi=0, eid="r", action=MemoryRead("x", 0))
    write_same = Event(thread=0, poi=1, eid="w0", action=MemoryWrite("x", 1))
    write_other = Event(thread=1, poi=0, eid="w1", action=MemoryWrite("x", 1))
    r = Relation([(read, write_same), (read, write_other)])
    assert r.internal() == Relation([(read, write_same)])
    assert r.external() == Relation([(read, write_other)])


def test_same_location_filter():
    rx = Event(thread=0, poi=0, eid="rx", action=MemoryRead("x", 0))
    wy = Event(thread=0, poi=1, eid="wy", action=MemoryWrite("y", 1))
    wx = Event(thread=0, poi=2, eid="wx", action=MemoryWrite("x", 1))
    r = Relation([(rx, wy), (rx, wx)])
    assert r.same_location() == Relation([(rx, wx)])


def test_from_order_and_totality():
    order = Relation.from_order(EVENTS[:3])
    assert len(order) == 3
    assert order.is_total_over(EVENTS[:3])
    assert not Relation.from_order(EVENTS[:2]).is_total_over(EVENTS[:3])


def test_domain_range_events_successors():
    r = _relation([(0, 1), (0, 2)])
    assert r.domain() == frozenset({EVENTS[0]})
    assert r.range() == frozenset({EVENTS[1], EVENTS[2]})
    assert r.events() == frozenset({EVENTS[0], EVENTS[1], EVENTS[2]})
    assert r.successors(EVENTS[0]) == frozenset({EVENTS[1], EVENTS[2]})
    assert r.predecessors(EVENTS[1]) == frozenset({EVENTS[0]})


def test_restrict_by_sets():
    r = _relation([(0, 1), (1, 2), (2, 3)])
    restricted = r.restrict(sources={EVENTS[0], EVENTS[1]}, targets={EVENTS[2]})
    assert restricted == _relation([(1, 2)])


# -- property-based tests -------------------------------------------------------

pair_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=15
)


@given(pairs=pair_lists)
@settings(deadline=None)
def test_property_sequence_with_identity_is_noop(pairs):
    r = _relation(pairs)
    identity = Relation.identity(EVENTS)
    assert r.seq(identity) == r
    assert identity.seq(r) == r


@given(pairs=pair_lists)
@settings(deadline=None)
def test_property_double_inverse_is_identity(pairs):
    r = _relation(pairs)
    assert r.inverse().inverse() == r


@given(left=pair_lists, right=pair_lists)
@settings(deadline=None)
def test_property_union_commutative_and_contains_operands(left, right):
    r1, r2 = _relation(left), _relation(right)
    union = r1 | r2
    assert union == r2 | r1
    assert r1.pairs <= union.pairs and r2.pairs <= union.pairs


@given(pairs=pair_lists)
@settings(deadline=None)
def test_property_plus_is_transitive_and_contains_relation(pairs):
    r = _relation(pairs)
    plus = r.plus()
    assert r.pairs <= plus.pairs
    assert plus.seq(plus).pairs <= plus.pairs


@given(left=pair_lists, right=pair_lists)
@settings(deadline=None)
def test_property_inverse_distributes_over_sequence(left, right):
    r1, r2 = _relation(left), _relation(right)
    assert (r1 @ r2).inverse() == r2.inverse() @ r1.inverse()
