"""Differential suite: the planned engine vs the naive reference oracle.

The planned engine (:mod:`repro.herd.optimal`) must be observationally
identical to the brute-force enumerator (:mod:`repro.herd.enumerate`):

* its surviving candidates are exactly the naive candidates that satisfy
  SC PER LOCATION — same events, same rf, same co, same outcomes —
  under both SC PER LOCATION variants;
* its combinatorial counting reproduces the naive candidate totals;
* the simulator summaries (counts, outcome sets, verdicts) agree
  between ``engine="optimal"`` and ``engine="naive"`` across models;
* the ``until="target"`` early-exit fast path proves the same verdicts.
"""

import pytest

from repro.core import axioms
from repro.core.architectures import get_architecture
from repro.diy.families import two_thread_family
from repro.herd import optimal
from repro.herd.enumerate import candidate_executions
from repro.herd.simulator import Simulator
from repro.litmus.registry import entries, get_test

MODELS = ("sc", "tso", "power", "arm")

REGISTRY_SAMPLE = (
    "mp", "mp+lwsync+addr", "sb", "sb+syncs", "lb", "lb+addrs", "r", "s",
    "2+2w", "wrc", "wrc+addrs", "rwc", "iriw", "iriw+syncs", "isa2",
    "coRR", "coWW", "coRW1", "coRW2", "w+rw+2w", "mp+lwsync+addr-po-detour",
)


def _registry_tests():
    known = {entry.name for entry in entries()}
    return [get_test(name) for name in REGISTRY_SAMPLE if name in known]


def _family_tests():
    return two_thread_family("power", limit=10)


def _candidate_key(candidate, test):
    execution = candidate.execution
    return (
        frozenset(execution.events),
        execution.rf.pairs,
        execution.co.pairs,
        candidate.outcome(test),
    )


def _uniproc_holds(candidate, variant="standard"):
    return axioms.check_sc_per_location(candidate.execution, variant) is None


@pytest.mark.parametrize("test", _registry_tests() + _family_tests(), ids=lambda t: t.name)
def test_survivors_are_exactly_the_uniproc_consistent_candidates(test):
    naive = list(candidate_executions(test))
    naive_keys = {_candidate_key(candidate, test) for candidate in naive}
    surviving_naive = {
        _candidate_key(candidate, test)
        for candidate in naive
        if _uniproc_holds(candidate)
    }

    total = 0
    surviving_engine = set()
    outcomes_engine = set()
    for plan in optimal.plans(test):
        total += plan.total
        walked = 0
        for candidate, outcome in plan.survivors():
            walked += 1
            key = _candidate_key(candidate, test)
            assert key in naive_keys, "engine invented a candidate"
            assert outcome == candidate.outcome(test)
            surviving_engine.add(key)
            outcomes_engine.add(outcome)
        assert walked == plan.explored

    assert total == len(naive)
    assert surviving_engine == surviving_naive
    assert outcomes_engine == {
        candidate.outcome(test)
        for candidate in naive
        if _uniproc_holds(candidate)
    }


@pytest.mark.parametrize("test", _registry_tests()[:8], ids=lambda t: t.name)
def test_llh_variant_prunes_exactly_the_llh_violations(test):
    naive = list(candidate_executions(test))
    surviving_naive = {
        _candidate_key(candidate, test)
        for candidate in naive
        if _uniproc_holds(candidate, "llh")
    }
    surviving_engine = {
        _candidate_key(candidate, test)
        for plan in optimal.plans(test, variant="llh")
        for candidate, _ in plan.survivors()
    }
    assert surviving_engine == surviving_naive


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("test", _registry_tests() + _family_tests(), ids=lambda t: t.name)
def test_simulation_summaries_agree_between_engines(test, model):
    planned = Simulator(model, engine="optimal").run(test)
    naive = Simulator(model, engine="naive").run(test)
    assert planned.num_candidates == naive.num_candidates
    assert planned.num_allowed == naive.num_allowed
    assert planned.allowed_outcomes == naive.allowed_outcomes
    assert planned.all_outcomes == naive.all_outcomes
    assert planned.verdict == naive.verdict
    assert planned.condition_holds == naive.condition_holds


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("test", _registry_tests(), ids=lambda t: t.name)
def test_verdict_fast_path_agrees_with_full_runs(test, model):
    full = Simulator(model, engine="naive").run(test).verdict
    assert Simulator(model).verdict(test) == full
    assert (
        Simulator(model, engine="naive").run(test, until="target").verdict == full
    )


def test_verdict_fast_path_defaults_missing_registers_to_zero():
    """A condition atom naming a thread/register the test never writes
    reads as 0 (the litmus convention) — the target-plan prefilter must
    not drop such combinations (regression: out-of-range threads were
    treated as unmatchable)."""
    from repro.litmus.ast import TestBuilder

    builder = TestBuilder("ghost-reg", arch="power")
    t0 = builder.thread()
    t0.store("x", 1)
    builder.exists({(1, "r9"): 0})  # thread 1 does not exist
    test = builder.build()
    naive = Simulator("sc", engine="naive").run(test).verdict
    assert Simulator("sc").verdict(test) == naive == "Allow"


def test_count_candidates_matches_naive_materialization():
    from repro.herd.enumerate import count_candidates

    for test in _registry_tests():
        assert count_candidates(test) == sum(
            1 for _ in candidate_executions(test)
        ), test.name
