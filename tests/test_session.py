"""The Session façade: backcompat with every legacy entry point, warm
state reuse, and dispatch (single in-process, iterable through the
campaign runtime on the session's pool).

Equality tests always use a *fresh* session: a warm session is allowed
to be faster (cycle-cache seeds, memoized contexts) but its first pass
over any input must equal what the legacy module-level call produces.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import Session, default_session
from repro import session as session_module
from repro.diy.families import sweep_family, two_thread_family
from repro.fences.campaign import repair_family
from repro.fences.validate import repair_test
from repro.hardware.chips import default_power_chips
from repro.hardware.testing import run_campaign
from repro.herd.simulator import Simulator, simulate
from repro.litmus.registry import get_test
from repro.mole.corpus import debian_corpus
from repro.mole.report import analyse_corpus, analyse_program
from repro.verification.bmc import verify_batch
from repro.verification.examples import all_examples


CLASSICS = ("mp", "sb", "lb", "wrc", "mp+lwsync+addr", "sb+syncs")


@pytest.fixture
def classics():
    return [get_test(name) for name in CLASSICS]


@pytest.fixture
def family():
    return two_thread_family("power", limit=12)


def _stable_verification_fields(result):
    """Everything deterministic about a VerificationResult (wall-clock
    and the counterexample object are run-dependent)."""
    return (
        result.name,
        result.model_name,
        result.backend,
        result.safe,
        result.violated_assertion,
        result.candidates_explored,
        result.allowed_executions,
        result.counterexample is None,
    )


# -- backcompat: session verbs equal the legacy module-level calls ---------------


def test_simulate_equals_module_simulate(classics):
    with Session(model="power") as session:
        for test in classics:
            assert session.simulate(test) == simulate(test, "power")


def test_simulate_respects_engine_and_model_overrides():
    test = get_test("mp")
    with Session(model="power") as session:
        naive = session.simulate(test, model="tso", engine="naive")
    assert naive == simulate(test, "tso", engine="naive")


def test_verdict_equals_simulator_verdict(classics):
    simulator = Simulator("power")
    with Session(model="power") as session:
        for test in classics:
            assert session.verdict(test) == simulator.verdict(test)


def test_verdict_batch_equals_per_test_verdicts(classics):
    simulator = Simulator("power")
    with Session(model="power") as session:
        batch = session.verdict(classics)
    assert batch == [simulator.verdict(test) for test in classics]


def test_sweep_equals_sweep_family(family):
    legacy = sweep_family(family, "power")
    with Session(model="power") as session:
        assert session.sweep(family) == legacy


def test_repair_single_equals_repair_test():
    test = get_test("mp")
    legacy = repair_test(test, "power")
    with Session(model="power") as session:
        report = session.repair(test)
    assert report == legacy


def test_repair_batch_equals_repair_family(family):
    legacy = repair_family(family, "power")
    with Session(model="power") as session:
        assert session.repair(family) == legacy


def test_repair_strategy_override_reaches_the_planner():
    test = get_test("mp")
    with Session(model="power", strategy="ilp") as session:
        assert session.repair(test).strategy == "ilp"
        assert session.repair(test, strategy="greedy").strategy == "greedy"


def test_observe_batch_equals_run_campaign(classics):
    chips = default_power_chips()
    legacy = run_campaign(classics, chips, "power", iterations=20_000, seed=7)
    with Session(model="power") as session:
        report = session.observe(classics, chips=chips, iterations=20_000, seed=7)
    assert report.model_name == legacy.model_name
    assert report.results == legacy.results


def test_observe_single_equals_first_campaign_row():
    test = get_test("mp")
    chips = default_power_chips()
    legacy = run_campaign([test], chips, "power", iterations=20_000, seed=7)
    with Session(model="power") as session:
        observed = session.observe(test, chips=chips, iterations=20_000, seed=7)
    assert observed == legacy.results[0]


def test_observe_infers_default_chips_from_the_model_family():
    test = get_test("mp")
    with Session(model="power") as session:
        observed = session.observe(test, iterations=5_000)
    assert set(observed.observed_outcomes) == {
        chip.name for chip in default_power_chips()
    }
    with Session(model="sc") as session:
        with pytest.raises(ValueError):
            session.observe(test, iterations=5_000)


def test_analyse_equals_analyse_corpus():
    corpus = debian_corpus()
    subset = {name: corpus[name] for name in list(corpus)[:3]}
    legacy = analyse_corpus(subset)
    with Session() as session:
        reports = session.analyse(subset)
    assert set(reports) == set(legacy)
    for name in reports:
        assert reports[name] == legacy[name]


def test_analyse_single_program_and_plain_iterable():
    programs = [program for package in debian_corpus().values() for program in package][:3]
    with Session() as session:
        single = session.analyse(programs[0])
        batch = session.analyse(programs)
    assert single == analyse_program(programs[0])
    assert batch == [analyse_program(program) for program in programs]


def test_verify_batch_equals_verify_batch(classics):
    items = classics[:3] + list(all_examples())[:1]
    legacy = verify_batch(items, "power")
    with Session(model="power") as session:
        results = session.verify(items)
    assert [_stable_verification_fields(r) for r in results] == [
        _stable_verification_fields(r) for r in legacy
    ]


def test_verify_single_uses_the_memoized_checker():
    test = get_test("sb")
    with Session(model="power") as session:
        first = session.verify(test)
        checker = session.checker()
        second = session.verify(test)
        assert session.checker() is checker
    assert _stable_verification_fields(first) == _stable_verification_fields(second)


# -- warm-session amortisation ----------------------------------------------------


def test_warm_session_shares_context_cache_across_verbs(classics):
    with Session(model="power") as session:
        session.sweep(classics)
        stats = session.stats()
        assert stats["context_cache"]["misses"] == len(classics)
        assert stats["context_cache"]["hits"] == 0
        # A second batch over the same tests — even under another model,
        # even through another verb — reuses every context.
        session.sweep(classics, model="arm")
        session.verdict(classics, model="tso")
        stats = session.stats()
        assert stats["context_cache"]["misses"] == len(classics)
        assert stats["context_cache"]["hits"] == 2 * len(classics)


def test_warm_session_never_re_resolves_the_model(classics):
    with Session(model="power") as session:
        session.sweep(classics)
        first = session.stats()["model_cache"]
        assert first["misses"] == 1
        simulator = session.simulator()
        session.sweep(classics)
        second = session.stats()["model_cache"]
        # The second batch re-used the resolution (hits grew, misses did not).
        assert second["misses"] == 1
        assert second["hits"] > first["hits"]
        assert session.simulator() is simulator


def test_warm_session_repair_seeds_from_the_cycle_cache():
    test = get_test("mp")
    with Session(model="power") as session:
        first = session.repair(test)
        assert not first.from_cache
        assert session.stats()["cycle_cache"]["entries"] >= 1
        again = session.repair(test)
        assert again.from_cache  # seeded by the session's shared memo
        assert again.after_verdict == first.after_verdict


def test_warm_session_reuses_one_pool_across_batches(family):
    with Session(model="power", processes=2) as session:
        assert session.stats()["pool"]["started"] is False
        first = session.sweep(family)
        pool = session._pool
        assert pool is not None and pool.workers == 2
        pids = [worker.process.pid for worker in pool._members]
        assert len(pids) == 2
        second = session.sweep(family, model="arm")
        repaired = session.repair(family[:4])
        assert session._pool is pool          # same CampaignPool object...
        # ...and the same live worker processes.
        assert [worker.process.pid for worker in pool._members] == pids
    # Pooled results equal the serial legacy drivers.
    assert first == sweep_family(family, "power")
    assert second == sweep_family(family, "arm")
    assert repaired.reports == repair_family(family[:4], "power").reports
    # Leaving the with-block shut the pool down.
    assert session._pool is None


def test_pooled_simulate_batch_equals_serial(family):
    oracle = [simulate(test, "power") for test in family]
    serial = Session(model="power").simulate(family)
    with Session(model="power", processes=2) as session:
        pooled = session.simulate(family)
    assert pooled == serial == oracle


def test_model_objects_shard_on_the_session_workers(family):
    """A resolved model and a cat model run their batches on the
    session's workers, as does a custom chip population, and every
    batch equals the serial run."""
    import dataclasses
    import warnings

    from repro.campaign import CampaignPicklingWarning
    from repro.cat import load_builtin_model
    from repro.core.architectures import power_architecture
    from repro.core.model import Model
    from repro.herd.simulator import resolve_model

    chips = default_power_chips()[:2]
    custom = dataclasses.replace(chips[0], implementation=Model(power_architecture()))
    for model in (resolve_model("power"), load_builtin_model("power")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CampaignPicklingWarning)
            with Session(model=model, processes=2) as session:
                swept = session.sweep(family[:6])
                repaired = session.repair(family[:4])
                observed = session.observe(
                    family[:3], chips=[custom, chips[1]], iterations=5_000
                )
                pool = session._pool
                assert pool.alive == 2  # the workers spawned
                assert pool.counters["unpicklable_payloads"] == 0
        assert swept == sweep_family(family[:6], model)
        assert repaired.reports == repair_family(family[:4], model).reports
        serial = run_campaign(family[:3], [custom, chips[1]], model, iterations=5_000)
        assert observed.results == serial.results


def test_unpicklable_model_runs_in_process_with_one_warning(family):
    """An architecture built from lambdas cannot reach a worker: the
    batch runs in-process, warns once, and equals the serial run."""
    import warnings

    from repro.campaign import CampaignPicklingWarning
    from repro.core.architectures import sc_prop
    from repro.core.model import Architecture
    from repro.core.relation import Relation

    custom = Architecture(
        name="lambda-sc",
        ppo_fn=lambda execution: execution.po,
        fences_fn=lambda execution: Relation(),
        prop_fn=sc_prop,
    )
    from repro.campaign import jobs

    hidden = jobs._CONTEXT_CACHE
    hidden_lookups = None if hidden is None else hidden.hits + hidden.misses
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with Session(model=custom, processes=2) as session:
            swept = session.sweep(family)
            # No payload pickled, so no worker was ever started.
            assert not [
                child
                for child in multiprocessing.active_children()
                if child.name == "campaign-supervised-worker"
            ]
    assert [w.category for w in caught] == [CampaignPicklingWarning]
    assert swept == sweep_family(family, custom)
    assert swept.verdicts == sweep_family(family, "sc").verdicts
    # The in-process chunks looked their contexts up in the session's
    # cache, not in a process-global one.
    cache = session.context_cache
    assert cache.hits + cache.misses == len(family)
    assert jobs._CONTEXT_CACHE is hidden
    if hidden is not None:
        assert hidden.hits + hidden.misses == hidden_lookups


def test_session_close_is_idempotent_and_restarts_lazily(family):
    session = Session(model="power", processes=2)
    session.sweep(family[:4])
    assert session._pool is not None
    session.close()
    session.close()
    assert session._pool is None
    # The session stays usable: the pool restarts on the next batch.
    session.sweep(family[:4])
    assert session._pool is not None
    session.close()


# -- the default session behind the module-level verbs ---------------------------


def test_default_session_is_a_serial_singleton():
    first = default_session()
    assert first is default_session()
    assert first.workers == 1  # module-level verbs never spawn workers


def test_module_level_verbs_ride_the_default_session():
    test = get_test("sb")
    before = default_session().stats()["context_cache"]["misses"]
    assert session_module.verdict(test, model="tso") == Simulator("tso").verdict(test)
    assert session_module.simulate(test, model="tso") == simulate(test, "tso")
    after = default_session().stats()["context_cache"]
    assert after["misses"] >= before  # served through the shared cache
