"""Differential greedy-vs-ILP test harness for fence placement.

jMT-style differential testing of the two placement strategies: the
optimality claim of :mod:`repro.fences.ilp` is machine-checked, not
asserted.  Over the whole litmus registry and the diy families, the
suite proves

* ``ilp_cost <= greedy_cost`` for every test and model,
* both placements *validate* — the repaired test flips to Forbid under
  the target model via ``Simulator.verdict``,
* ILP equals greedy wherever greedy is provably optimal (single-cycle
  tests: the cycle's per-thread spans are gap-disjoint, so the cover is
  separable and greedy's per-pair minimum is the optimum),
* on hand-built multi-cycle AEGs with known optimal covers, the ILP
  strategy hits the exact optimum while greedy overpays.
"""

import pytest

from repro.diy.families import (
    compare_placement_costs,
    extended_family,
    shared_gap_family,
    two_thread_family,
)
from repro.fences import repair_test
from repro.fences import ilp
from repro.fences.aeg import (
    AbstractEvent,
    AbstractEventGraph,
    PoEdge,
    aeg_from_litmus,
)
from repro.fences.campaign import repair_family
from repro.fences.cycles import CriticalCycle, critical_cycles
from repro.fences.ilp import (
    CoverVariable,
    build_cover_problem,
    lp_lower_bound,
    solve_cover,
)
from repro.fences.placement import (
    Mechanism,
    classify_pairs,
    plan_placements,
    total_cost,
)
from repro.herd.simulator import Simulator
from repro.litmus.registry import all_tests, get_test

CLASSICS = ("sb", "mp", "lb", "wrc", "iriw", "r", "s")

REGISTRY_NAMES = tuple(test.name for test in all_tests())

FAMILY_TESTS = (
    two_thread_family("power", limit=20)
    + extended_family("power", limit=8)
    + shared_gap_family()
)


def _repair_both(test, model):
    greedy = repair_test(test, model)
    optimal = repair_test(test, model, strategy="ilp")
    return greedy, optimal


def _assert_ilp_not_worse(test, model):
    """The core differential property, shared by every corpus sweep."""
    greedy, optimal = _repair_both(test, model)
    assert greedy.strategy == "greedy" and optimal.strategy == "ilp"
    assert optimal.success == greedy.success, (
        f"{test.name}: strategies disagree on repairability "
        f"(greedy={greedy.success}, ilp={optimal.success})"
    )
    assert optimal.cost <= greedy.cost, (
        f"{test.name}: ilp cost {optimal.cost:g} exceeds greedy "
        f"{greedy.cost:g} — the 'optimal' cover is not"
    )
    if greedy.needed_repair and greedy.success:
        simulator = Simulator(model)
        assert simulator.verdict(greedy.repaired) == "Forbid"
        assert simulator.verdict(optimal.repaired) == "Forbid"
    return greedy, optimal


# -- the differential sweeps -------------------------------------------------------


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_registry_ilp_not_worse_and_validates_power(name):
    _assert_ilp_not_worse(get_test(name), "power")


@pytest.mark.parametrize("test", FAMILY_TESTS, ids=lambda test: test.name)
def test_family_ilp_not_worse_and_validates_power(test):
    _assert_ilp_not_worse(test, "power")


@pytest.mark.parametrize("model", ("arm", "tso"))
@pytest.mark.parametrize("name", CLASSICS)
def test_classics_ilp_not_worse_other_models(name, model):
    _assert_ilp_not_worse(get_test(name), model)


@pytest.mark.parametrize("name", CLASSICS)
def test_single_cycle_classics_ilp_equals_greedy(name):
    """On single-cycle tests greedy is provably optimal: spans of one
    cycle are gap-disjoint, the cover separates per pair, and greedy
    takes each pair's cheapest mechanism — ILP must coincide exactly."""
    test = get_test(name)
    assert len(critical_cycles(aeg_from_litmus(test))) == 1
    greedy, optimal = _repair_both(test, "power")
    assert optimal.cost == greedy.cost
    assert sorted(optimal.mechanisms) == sorted(greedy.mechanisms)
    assert optimal.validations == greedy.validations


def test_single_cycle_family_ilp_equals_greedy():
    singles = [
        test
        for test in FAMILY_TESTS
        if len(critical_cycles(aeg_from_litmus(test))) == 1
    ]
    assert len(singles) >= 10  # the sweep is not vacuous
    for test in singles:
        greedy, optimal = _repair_both(test, "power")
        assert optimal.cost == greedy.cost, test.name
        assert sorted(optimal.mechanisms) == sorted(greedy.mechanisms), test.name


def test_ilp_strictly_cheaper_on_at_least_one_registry_test():
    """The exact solver is not a no-op: real registry shapes overpay
    under greedy (fri-rfi tests carry overlapping delay spans)."""
    wins = []
    for test in all_tests():
        greedy, optimal = _repair_both(test, "power")
        if optimal.cost < greedy.cost and optimal.success:
            wins.append(test.name)
    assert wins, "greedy was optimal on the whole registry"


def test_sharedgap_ilp_strictly_cheaper_and_validated():
    """The hand-built shared-gap family: greedy grabs the cheap shared
    lwsync first and pays a separate sync; ILP finds the one-sync
    cover.  Both repairs must herd-validate."""
    (test,) = shared_gap_family()
    greedy, optimal = _assert_ilp_not_worse(test, "power")
    assert greedy.needed_repair and greedy.success and optimal.success
    assert optimal.cost < greedy.cost


# -- hand-built multi-cycle AEGs with known optima ---------------------------------


def _event(index, direction, location):
    return AbstractEvent(
        thread=0,
        index=index,
        direction=direction,
        location=location,
        instr_index=index,
        register=f"r{index}" if direction == "R" else None,
    )


def _shared_edge_problem():
    """One thread Wa Wb Rc Rd; cycles contribute pairs (0,1) [WW],
    (0,2) [WR] and (1,3) [WR].  Gap 1 is shared by both WR spans: the
    optimal cover is one sync there plus an lwsync for the WW pair
    (cost 6).  Greedy first takes gap 0 (sync, best ratio covering WW
    and the first WR), then must sync the remaining WR pair: cost 8 —
    two syncs where one suffices."""
    events = [
        _event(0, "W", "a"),
        _event(1, "W", "b"),
        _event(2, "R", "c"),
        _event(3, "R", "d"),
    ]
    edges = [
        PoEdge(src=events[0], dst=events[1]),
        PoEdge(src=events[0], dst=events[2]),
        PoEdge(src=events[1], dst=events[3]),
    ]
    aeg = AbstractEventGraph(
        name="shared-edge",
        arch="power",
        threads=[events],
        po_edges=edges,
        cmp_edges=[],
    )
    cycles = [
        CriticalCycle(events=(edge.src, edge.dst), po_edges=(edge,))
        for edge in edges
    ]
    return aeg, cycles


def test_shared_edge_aeg_greedy_picks_two_syncs_ilp_one():
    aeg, cycles = _shared_edge_problem()
    greedy = plan_placements(aeg, cycles, "power")
    optimal = plan_placements(aeg, cycles, "power", strategy="ilp")
    assert total_cost(greedy) == 8.0
    assert [p.mechanism.name for p in greedy] == ["sync", "sync"]
    assert total_cost(optimal) == 6.0
    assert sorted(p.mechanism.name for p in optimal) == ["lwsync", "sync"]
    # The shared sync sits at the gap both WR spans cross.
    (shared,) = [p for p in optimal if p.mechanism.name == "sync"]
    assert shared.gap == 1
    assert set(shared.pair_keys) == {(0, 0, 2), (0, 1, 3)}


def test_shared_edge_ilp_chain_still_escalates():
    """ILP placements carry the same escalation chains as greedy ones:
    the lwsync of the optimal cover can still be walked up to sync."""
    aeg, cycles = _shared_edge_problem()
    optimal = plan_placements(aeg, cycles, "power", strategy="ilp")
    (light,) = [p for p in optimal if p.mechanism.name == "lwsync"]
    assert light.can_escalate()
    light.escalate()
    assert light.mechanism.name == "sync"


def test_sharedgap_litmus_exact_static_optimum():
    """The litmus realization: greedy covers the overlapping reader
    spans for 10, the ILP optimum is 9 (dep + shared sync)."""
    (test,) = shared_gap_family()
    aeg = aeg_from_litmus(test)
    cycles = critical_cycles(aeg)
    assert len(cycles) > 1  # genuinely multi-cycle
    greedy = plan_placements(aeg, cycles, "power")
    optimal = plan_placements(aeg, cycles, "power", strategy="ilp")
    assert total_cost(greedy) == 10.0
    assert total_cost(optimal) == 9.0


# -- solver internals --------------------------------------------------------------


def _mech(name, cost):
    return Mechanism("fence", name, cost)


def test_solve_cover_exact_on_handmade_instance():
    """Classic greedy trap: the ratio-best big set forces two singles."""
    variables = [
        CoverVariable(0, 0, _mech("big", 3.0), covers=(0, 1, 2)),
        CoverVariable(0, 1, _mech("left", 1.0), covers=(0, 1)),
        CoverVariable(0, 2, _mech("right", 1.0), covers=(1, 2)),
    ]
    cost, selection = solve_cover(variables, 3)
    assert cost == 2.0
    assert sorted(variables[vi].mechanism.name for vi in selection) == [
        "left",
        "right",
    ]


def test_solve_cover_ignores_uncoverable_constraints():
    variables = [CoverVariable(0, 0, _mech("only", 2.0), covers=(0,))]
    cost, selection = solve_cover(variables, 2)  # constraint 1 uncoverable
    assert cost == 2.0 and len(selection) == 1


def test_lp_bound_is_admissible_on_real_instances():
    """The dual-feasible bound never exceeds the integer optimum."""
    for name in ("sb", "iriw", "mp+dmb+fri-rfi-ctrlisb"):
        test = get_test(name)
        aeg = aeg_from_litmus(test)
        delays, _ = classify_pairs(
            aeg, critical_cycles(aeg), "power", "power"
        )
        keys, variables = build_cover_problem(delays, "power")
        optimum, _ = solve_cover(variables, len(keys))
        candidates = [
            [vi for vi, var in enumerate(variables) if ci in var.covers]
            for ci in range(len(keys))
        ]
        bound = lp_lower_bound(frozenset(range(len(keys))), variables, candidates)
        assert bound <= optimum + 1e-9


def test_uncoverable_pairs_dropped_like_greedy(monkeypatch):
    """With an ISA whose only fence cannot order WR pairs, both
    strategies give up on those pairs and cover the rest."""
    from repro.fences import placement

    monkeypatch.setitem(
        placement.FENCE_COSTS, "power", (placement._fence("lwsync", 2.0),)
    )
    test = get_test("sb")  # two WR delay pairs, neither dep-applicable
    aeg = aeg_from_litmus(test)
    cycles = critical_cycles(aeg)
    greedy = plan_placements(aeg, cycles, "power")
    optimal = plan_placements(aeg, cycles, "power", strategy="ilp")
    assert [p for p in greedy if p.mechanism.kind != "existing"] == []
    assert [p for p in optimal if p.mechanism.kind != "existing"] == []


def test_solver_memo_hits_on_structurally_equal_tests():
    """Renamed siblings share an instance signature: the second solve
    is a memo hit, mirroring the campaign's cycle-signature cache."""
    from repro.litmus.ast import TestBuilder

    def sb_like(name, loc_a, loc_b):
        builder = TestBuilder(name, arch="power")
        t0 = builder.thread()
        t0.store(loc_a, 1)
        r1 = t0.load(loc_b)
        t1 = builder.thread()
        t1.store(loc_b, 1)
        r2 = t1.load(loc_a)
        builder.exists({(0, r1): 0, (1, r2): 0})
        return builder.build()

    ilp.clear_memo()
    for name, a, b in (("sb-one", "x", "y"), ("sb-two", "u", "v")):
        test = sb_like(name, a, b)
        aeg = aeg_from_litmus(test)
        plan_placements(aeg, critical_cycles(aeg), "power", strategy="ilp")
    stats = ilp.cache_stats()
    assert stats.misses == 1 and stats.hits == 1 and stats.entries == 1
    ilp.clear_memo()
    assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)


# -- escalation parity (the dep-rejection fix) -------------------------------------


@pytest.mark.parametrize("name", ("wrc", "iriw"))
def test_dep_rejected_by_validation_escalates_identically(name):
    """Both strategies statically propose address dependencies for the
    reader pairs; validation proves them non-cumulative and must walk
    the same escalation chain in the ILP path as in the greedy one."""
    greedy, optimal = _repair_both(get_test(name), "power")
    for report in (greedy, optimal):
        assert report.success
        assert report.validations >= 2  # escalation actually ran
        escalated = [p for p in report.placements if p.level > 0]
        assert escalated, f"{report.strategy}: nothing escalated"
        assert any(p.chain[0].kind == "dep" for p in escalated), (
            f"{report.strategy}: no dep placement was escalated"
        )
    assert optimal.validations == greedy.validations
    assert sorted(optimal.mechanisms) == sorted(greedy.mechanisms)
    assert optimal.cost == greedy.cost


# -- campaign integration ----------------------------------------------------------


def test_ilp_campaign_cache_keys_carry_strategy():
    """Greedy and ILP seeds never cross-contaminate a shared cache."""
    tests = two_thread_family("power", limit=8)
    cache = {}
    repair_family(tests, "power", cache=cache)
    greedy_keys = set(cache)
    repair_family(tests, "power", cache=cache, strategy="ilp")
    ilp_keys = set(cache) - greedy_keys
    assert all(key[1] == "greedy" for key in greedy_keys)
    assert ilp_keys and all(key[1] == "ilp" for key in ilp_keys)


def test_cycle_signature_cache_hits_equal_across_strategies():
    """Warm-vs-cold memo behaviour is strategy-independent: the same
    family produces the same hit counts under greedy and ILP."""
    tests = two_thread_family("power", limit=16)
    observed = {}
    for strategy in ("greedy", "ilp"):
        cache = {}
        cold = repair_family(tests, "power", cache=cache, strategy=strategy)
        warm = repair_family(tests, "power", cache=cache, strategy=strategy)
        assert warm.total_validations <= cold.total_validations
        assert warm.cache_hits >= cold.cache_hits
        observed[strategy] = (cold.cache_hits, warm.cache_hits)
    assert observed["greedy"] == observed["ilp"]


def test_compare_placement_costs_sweep():
    comparison = compare_placement_costs(FAMILY_TESTS, "power")
    assert comparison.num_tests == len(FAMILY_TESTS)
    assert comparison.ilp_total <= comparison.greedy_total
    assert comparison.num_strictly_cheaper >= 1
    assert all(ilp_cost <= greedy_cost for _, greedy_cost, ilp_cost in comparison.rows)
    assert "gap" in comparison.describe()
