"""The planned (optimal exploration) engine over the whole registry.

The planned engine (:mod:`repro.herd.optimal`) must be observationally
identical to the naive oracle while *constructing* each consistent
execution exactly once:

* its leaves are exactly the naive candidates that survive the
  SC PER LOCATION cut — same events, same rf, same co, same outcomes —
  over the full registry and diy families, under both SC PER LOCATION
  variants, each constructed once;
* executions-explored == surviving-leaf count (the optimality claim:
  the walk never builds an execution it then discards);
* simulator summaries (counts, outcome sets, verdicts) agree between
  ``engine="optimal"`` and ``"naive"`` for every model;
* the ``until="target"`` fast path, the campaign context cache, the
  session verbs and sharded sweeps all serve ``engine="optimal"``
  unchanged;
* under telemetry, the ``engine.*`` counters are published and
  internally consistent (revisits/dead ends bounded by extension steps,
  explored equal to the plan totals).
"""

from __future__ import annotations

import gc

import pytest

from repro import telemetry
from repro.campaign.context import ContextCache, SimulationContext
from repro.core import axioms
from repro.diy.families import (
    coherence_stress_family,
    extended_family,
    sweep_family,
    two_thread_family,
)
from repro.herd import optimal as optimal_engine
from repro.herd.enumerate import candidate_executions, count_candidates
from repro.herd.simulator import ENGINES, Simulator
from repro.litmus.registry import entries, get_test

MODELS = ("sc", "tso", "power", "arm")

#: Sample for the optimal-vs-naive summary comparison.
SUMMARY_SAMPLE = (
    "mp", "mp+lwsync+addr", "sb", "sb+syncs", "lb", "lb+addrs", "r", "s",
    "2+2w", "wrc", "wrc+addrs", "rwc", "iriw", "iriw+syncs", "isa2",
    "coRR", "coWW", "coRW1", "coRW2", "w+rw+2w",
)


def _registry_tests():
    return [get_test(entry.name) for entry in entries()]


def _sample_tests():
    known = {entry.name for entry in entries()}
    return [get_test(name) for name in SUMMARY_SAMPLE if name in known]


def _family_tests():
    return (
        two_thread_family("power", limit=8)
        + extended_family("power", limit=4)
        + coherence_stress_family("power", threads=2, writes_per_location=3)
        + coherence_stress_family("power", threads=3, writes_per_location=2)
    )


def _leaf_key(leaf):
    candidate = leaf.candidate()
    return (
        candidate.execution.events,
        candidate.execution.rf.pairs,
        candidate.execution.co.pairs,
        leaf.outcome,
    )


@pytest.fixture(autouse=True)
def _no_leaked_registry():
    yield
    telemetry.disable()


# -- survivor-set identity ----------------------------------------------------------


@pytest.mark.parametrize("variant", ("standard", "llh"))
@pytest.mark.parametrize(
    "test", _registry_tests() + _family_tests(), ids=lambda t: t.name
)
def test_optimal_explores_exactly_the_pruning_survivors(test, variant):
    """The survivors of the SC PER LOCATION cut, taken from the naive
    oracle's full grid, are exactly the executions the walk builds."""
    pruning_survivors = {
        (
            candidate.execution.events,
            candidate.execution.rf.pairs,
            candidate.execution.co.pairs,
            candidate.outcome(test),
        )
        for candidate in candidate_executions(test)
        if axioms.check_sc_per_location(candidate.execution, variant) is None
    }
    optimal_keys = []
    for plan in optimal_engine.plans(test, variant):
        walked = 0
        for leaf in plan.leaves():
            walked += 1
            optimal_keys.append(_leaf_key(leaf))
        assert plan.explored == walked
    # Optimality: each survivor is constructed exactly once.
    assert len(optimal_keys) == len(set(optimal_keys))
    assert set(optimal_keys) == pruning_survivors


# -- summary identity across every engine name -------------------------------------


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "test", _sample_tests() + _family_tests()[:6], ids=lambda t: t.name
)
def test_summaries_agree_across_all_three_engines(test, model):
    """``optimal`` against the ``naive`` oracle (the third engine,
    ``pruning``, is gone)."""
    optimal = Simulator(model, engine="optimal").run(test)
    naive = Simulator(model, engine="naive").run(test)
    assert optimal.to_dict() == naive.to_dict()


@pytest.mark.parametrize("model", MODELS)
def test_full_registry_verdicts_agree_with_pruning(model):
    """Fast-path verdicts of ``optimal`` (which only checks the leaves
    the uniproc pruning keeps) equal the naive oracle's full-run
    verdicts over the whole registry."""
    optimal = Simulator(model, engine="optimal")
    naive = Simulator(model, engine="naive")
    for test in _registry_tests():
        expected = naive.run(test).verdict
        assert optimal.verdict(test) == expected, test.name


# -- fast path, context cache, session and campaign integration ---------------------


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("test", _sample_tests()[:8], ids=lambda t: t.name)
def test_verdict_fast_path_and_context_agree(test, model):
    full = Simulator(model, engine="optimal").run(test).verdict
    assert Simulator(model, engine="optimal").verdict(test) == full
    context = SimulationContext(test)
    fast = Simulator(model, engine="optimal").run(
        test, until="target", context=context
    )
    assert fast.verdict == full
    # The cached plans are reused across models and queries.
    plans = list(context.plans("standard"))
    again = Simulator(model, engine="optimal").run(test, context=context)
    assert again.verdict == full
    assert list(context.plans("standard")) == plans


def test_engine_registry_exposes_optimal():
    assert ENGINES == ("optimal", "naive")
    assert Simulator("sc").engine == "optimal"
    # The former aliases of "optimal" are unknown names now.
    for unknown in ("auto", "pruning", "optimally", "bogus"):
        with pytest.raises(ValueError):
            Simulator("power", engine=unknown)


def test_optimal_falls_back_to_naive_for_oracle_queries():
    test = get_test("sb")
    result = Simulator("sc", engine="optimal").run(test, keep_candidates=True)
    reference = Simulator("sc", engine="naive").run(test, keep_candidates=True)
    assert len(result.allowed_candidates) == len(reference.allowed_candidates)
    assert result.num_candidates == reference.num_candidates


def test_session_and_sharded_sweep_serve_the_optimal_engine():
    from repro.session import Session

    tests = [get_test(name) for name in ("sb", "mp", "lb", "wrc")]
    with Session(model="power", engine="optimal") as session:
        verdicts = dict(session.sweep(tests).verdicts)
    baseline = {
        test.name: Simulator("power", engine="naive").run(test).verdict
        for test in tests
    }
    assert verdicts == baseline

    sharded = sweep_family(tests, "power", processes=2, engine="optimal")
    assert dict(sharded.verdicts) == baseline

    cache = ContextCache()
    serial = sweep_family(tests, "power", engine="optimal", context_cache=cache)
    assert dict(serial.verdicts) == baseline
    assert cache.misses == len(tests)


# -- optimality and telemetry counters ----------------------------------------------


def test_zero_waste_on_the_exploding_grid():
    """The benchmark claim in miniature: the grid is (m!)^threads but
    the optimal walk takes O(survivors) extension steps."""
    [test] = coherence_stress_family("power", threads=2, writes_per_location=5)
    grid = explored = steps = 0
    for plan in optimal_engine.plans(test, "standard"):
        survivors = sum(1 for _ in plan.leaves())
        assert plan.explored == survivors
        grid += plan.total
        explored += plan.explored
        steps += plan.extension_steps
    assert grid == count_candidates(test)
    assert explored < grid / 1000, "the grid must dwarf the explored set"
    assert steps < grid / 100, "extension steps must not scale with the grid"


def test_optimal_counters_under_telemetry():
    metrics = telemetry.enable()
    test = get_test("iriw")
    result = Simulator("power", engine="optimal").run(test)
    snapshot = metrics.snapshot()
    counters = snapshot.counters
    assert counters["herd.runs.optimal"] == 1
    assert counters["engine.walks"] >= 1
    explored = counters["engine.explored"]
    total_survivors = 0
    for plan in optimal_engine.plans(test, "standard"):
        total_survivors += sum(1 for _ in plan.leaves())
    assert explored == total_survivors
    assert counters["engine.extension_steps"] >= explored
    # Every revisit accompanies one read-placement extension step.
    revisits = counters.get("engine.revisits", 0)
    assert 0 <= revisits <= counters["engine.extension_steps"]
    assert counters.get("engine.dead_ends", 0) >= 0
    # The span records the engine that actually ran.
    spans = [span for span in snapshot.spans if span["name"] == "herd.run"]
    assert spans and spans[-1]["tags"]["engine"] == "optimal"
    assert result.verdict in ("Allow", "Forbid")


def test_revisits_are_counted_when_reads_defer_to_newer_writes():
    """A read with two same-value sources must produce exactly one
    revisit: the consistent execution where it reads the *second* write
    assigns its rf after the read was already placeable under the
    first — GenMC's revisit, surfaced by the counter."""
    from repro.litmus.ast import TestBuilder

    builder = TestBuilder("revisit-probe", arch="power")
    t0 = builder.thread()
    t0.store("x", 1)
    t0.store("x", 1)
    t1 = builder.thread()
    register = t1.load("x")
    builder.exists({(1, register): 1})
    test = builder.build()

    revisits = 0
    survivors = 0
    for plan in optimal_engine.plans(test, "standard"):
        survivors += sum(1 for _ in plan.leaves())
        revisits += plan.revisits
    # Three consistent executions (read init, read first write, read
    # second write); only the last defers past an available source.
    assert survivors == 3
    assert revisits == 1


def test_queries_leave_no_reference_cycles():
    """Full runs and verdicts free their walk state by reference
    counting, so the cyclic collector finds nothing to reclaim and its
    pauses do not land on later queries."""
    simulator = Simulator("power")
    tests = [get_test(name) for name in ("mp", "sb", "iriw", "2+2w", "wrc")]
    tests += coherence_stress_family("power", threads=2, writes_per_location=3)
    gc.collect()
    gc.disable()
    try:
        for test in tests:
            simulator.run(test)
            simulator.verdict(test)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- write bursts: the benchmark's description of coherence-heavy inputs ----------


def test_write_burst_is_conservative_on_unresolvable_addresses():
    from repro.litmus.ast import LitmusTest
    from repro.litmus.instructions import MoveImmediate, Store
    from repro.herd.simulator import write_burst

    computed = LitmusTest(
        name="computed-address",
        arch="power",
        threads=[
            [
                MoveImmediate(dst="r1", value=1),
                Store(src="r1", addr_reg="r9", index_reg=None),
                Store(src="r1", addr_reg="r9", index_reg=None),
                Store(src="r1", addr_reg="r9", index_reg=None),
                Store(src="r1", addr_reg="r9", index_reg=None),
            ]
        ],
        init_registers={},
    )
    assert write_burst(computed) == 0
