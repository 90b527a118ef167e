"""The shared campaign runtime: sharding, context caching, invalidation.

Differential guarantees, in the spirit of ``tests/test_differential.py``:

* sharded campaign results equal serial results for all five drivers
  (fence repair, hardware testing, mole censuses, diy sweeps, BMC), and
  both equal a loop over the driver's single-item function — the
  runner's in-process path is not its own oracle;
* context-cache hits return results identical to cold runs, across
  models and SC-PER-LOCATION variants;
* splicing a test (fence repair) never hits the original's cached
  context — structural fingerprints make stale relations unreachable.
"""

import dataclasses
import multiprocessing
import pickle
import random

import pytest

from repro.campaign import (
    CampaignPool,
    ContextCache,
    SimulationContext,
    SupervisorPolicy,
    chunked,
    run_sharded,
    test_fingerprint,
    worker_count,
)
from repro.cat import builtin_model_names, load_builtin_model
from repro.compare import compare_models
from repro.core.architectures import ARCHITECTURES
from repro.core.model import Model
from repro.diy.families import extended_family, sweep_family, two_thread_family
from repro.fences.campaign import repair_family
from repro.fences.validate import repair_test
from repro.hardware import default_arm_chips, default_power_chips, run_campaign
from repro.hardware.testing import observe_test
from repro.herd.simulator import Simulator, resolve_model
from repro.litmus.registry import all_tests, get_test
from repro.mole import analyse_corpus, debian_corpus
from repro.mole.analysis import find_cycles
from repro.verification import verify_batch
from repro.verification.bmc import BoundedModelChecker
from repro.verification.examples import all_examples
from repro.verification.program import Program

MODELS = ("power", "arm", "tso", "arm-llh")


def _family():
    return two_thread_family("power", limit=12)


# -- the sharding runner ------------------------------------------------------------


def _double_chunk(chunk, payload):
    return [item * 2 + (payload or 0) for item in chunk]


def _sum_chunk(chunk, payload):
    return [item + payload for item in chunk], sum(chunk)


def test_worker_count_resolution():
    assert worker_count(None) == 1
    assert worker_count(0) == 1
    assert worker_count(1) == 1
    assert worker_count(3) == 3
    assert worker_count("auto") >= 1
    with pytest.raises(ValueError):
        worker_count(-2)


def test_chunking_preserves_order_and_covers_everything():
    jobs = list(range(23))
    chunks = chunked(jobs, 5)
    assert [len(chunk) for chunk in chunks] == [5, 5, 5, 5, 3]
    assert [item for chunk in chunks for item in chunk] == jobs
    with pytest.raises(ValueError):
        chunked(jobs, 0)


def test_run_sharded_order_and_serial_fallback_identity():
    jobs = list(range(17))
    serial = run_sharded(_double_chunk, jobs, payload=1, processes=None, chunk_size=4)
    sharded = run_sharded(_double_chunk, jobs, payload=1, processes=2, chunk_size=4)
    assert serial == sharded == [item * 2 + 1 for item in jobs]


def test_run_sharded_merge_collects_chunk_extras_in_order():
    jobs = list(range(10))
    extras = []
    results = run_sharded(
        _sum_chunk,
        jobs,
        payload=100,
        processes=2,
        chunk_size=3,
        merge=extras.append,
    )
    assert results == [item + 100 for item in jobs]
    assert extras == [0 + 1 + 2, 3 + 4 + 5, 6 + 7 + 8, 9]


def test_campaign_pool_reuses_workers_across_batches():
    with CampaignPool(2) as pool:
        first = pool.run(_double_chunk, [1, 2, 3], payload=0, chunk_size=2)
        second = pool.run(_double_chunk, [4, 5], payload=0, chunk_size=2)
    assert first == [2, 4, 6]
    assert second == [8, 10]


# -- (a) sharded results == serial results across drivers ---------------------------


def _memo_free(report):
    """A repair report without what the campaign memo alone decides."""
    return dataclasses.replace(report, validations=0, from_cache=False)


def _observe_each(tests, chips, model, iterations, seed=2014):
    """``observe_test`` per test, with the chip seeds drawn in family
    order from ``Random(seed)``, as :func:`run_campaign` documents."""
    rng = random.Random(seed)
    simulator = Simulator(model)
    return [
        observe_test(
            simulator, test, chips, iterations,
            tuple(rng.randint(0, 2**31) for _ in chips),
        )
        for test in tests
    ]


def test_sharded_fence_campaign_matches_serial():
    tests = two_thread_family("power", limit=48) + extended_family("power", limit=12)
    serial = repair_family(tests, "power", chunk_size=4)
    sharded = repair_family(tests, "power", processes=2, chunk_size=4)
    assert serial.model_name == sharded.model_name
    assert serial.reports == sharded.reports  # from_cache included
    assert serial.cache_hits == sharded.cache_hits
    # The memo only saves validations: every report equals a repair
    # that consults no memo.
    oracle = [repair_test(test, "power") for test in tests]
    assert [_memo_free(r) for r in serial.reports] == [_memo_free(r) for r in oracle]


def test_sharded_ilp_fence_campaign_matches_serial():
    """ILP repairs shard and cache exactly like greedy ones: the chunk
    workers carry the strategy in their payload, and sharded results
    (mechanisms, costs, memo behaviour) are byte-equal to serial."""
    from repro.diy.families import shared_gap_family

    tests = _family() + shared_gap_family()
    serial = repair_family(tests, "power", strategy="ilp", chunk_size=4)
    sharded = repair_family(
        tests, "power", strategy="ilp", processes=2, chunk_size=4
    )
    assert serial.model_name == sharded.model_name
    assert serial.reports == sharded.reports
    assert serial.total_cost == sharded.total_cost
    oracle = [repair_test(test, "power", strategy="ilp") for test in tests]
    assert [_memo_free(r) for r in serial.reports] == [_memo_free(r) for r in oracle]


def test_sharded_hardware_campaign_matches_serial():
    tests = _family()[:6]
    chips = default_power_chips()[:2]
    serial = run_campaign(tests, chips, "power", iterations=20_000)
    sharded = run_campaign(
        tests, chips, "power", iterations=20_000, processes=2, chunk_size=2
    )
    assert serial.results == sharded.results  # observations included, seed for seed
    assert serial.results == _observe_each(tests, chips, "power", 20_000)


def test_sharded_hardware_campaign_arm_errata_match_serial():
    tests = [get_test("coRR"), get_test("mp"), get_test("sb")]
    chips = default_arm_chips()[:2]
    serial = run_campaign(tests, chips, "power-arm", iterations=50_000)
    sharded = run_campaign(
        tests, chips, "power-arm", iterations=50_000, processes=2, chunk_size=1
    )
    assert serial.results == sharded.results
    assert serial.results == _observe_each(tests, chips, "power-arm", 50_000)


def test_sharded_hardware_campaign_custom_chip_matches_serial():
    """A custom chip travels to the workers as it is: a same-named chip
    with a swapped implementation model is never rebuilt as the default
    one, and the workers observe exactly what the serial run does."""
    import dataclasses
    import warnings

    from repro.campaign import CampaignPicklingWarning
    from repro.core.architectures import power_architecture
    from repro.core.model import Model

    chips = default_power_chips()[:2]
    custom = dataclasses.replace(chips[0], implementation=Model(power_architecture()))
    tests = _family()[:3]
    serial = run_campaign(tests, [custom, chips[1]], "power", iterations=5_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CampaignPicklingWarning)
        with CampaignPool(2) as pool:
            sharded = run_campaign(
                tests, [custom, chips[1]], "power", iterations=5_000,
                pool=pool, chunk_size=1,
            )
            assert pool._supervised.alive == 2  # the workers spawned
            assert pool.counters["unpicklable_payloads"] == 0
    assert serial.results == sharded.results
    assert serial.results == _observe_each(
        tests, [custom, chips[1]], "power", 5_000
    )


def test_sharded_mole_census_matches_serial():
    corpus = debian_corpus()
    serial = analyse_corpus(corpus)
    sharded = analyse_corpus(corpus, processes=2, chunk_size=2)
    assert set(serial) == set(sharded) == set(corpus)
    for package, programs in corpus.items():
        assert serial[package].cycles == sharded[package].cycles
        assert serial[package].cycles == [
            cycle for program in programs for cycle in find_cycles(program, 6)
        ]


def test_sharded_family_sweep_matches_serial():
    tests = _family()
    for model in ("power", "tso"):
        serial = sweep_family(tests, model)
        sharded = sweep_family(tests, model, processes=2, chunk_size=3)
        assert serial.verdicts == sharded.verdicts
        assert serial.model_name == sharded.model_name
        simulator = Simulator(model)
        assert serial.verdicts == tuple(
            (test.name, simulator.verdict(test)) for test in tests
        )


@pytest.mark.parametrize("processes", (None, 2))
def test_bad_arguments_fail_in_the_caller(processes):
    """A bad model or backend raises what the single-item call raises,
    before any job is built, whatever the worker count or policy."""
    tests = _family()
    quarantine = SupervisorPolicy(on_error="quarantine")
    with pytest.raises(KeyError):
        sweep_family(tests, "nosuchmodel", processes=processes)
    with pytest.raises(KeyError):
        sweep_family(tests, "nosuchmodel", processes=processes, policy=quarantine)
    with pytest.raises(KeyError):
        compare_models("tso", "nosuchmodel", tests=tests, processes=processes)
    with pytest.raises(ValueError, match="symbolic"):
        verify_batch(tests[:4], "power", backend="symbolic", processes=processes)
    assert not [
        child
        for child in multiprocessing.active_children()
        if child.name == "campaign-supervised-worker"
    ]


def test_sharded_family_sweep_canonicalizes_model_name():
    tests = _family()[:4]
    serial = sweep_family(tests, "Power")
    sharded = sweep_family(tests, "Power", processes=2, chunk_size=2)
    assert serial.model_name == sharded.model_name == "power"
    assert serial.verdicts == sharded.verdicts


def test_repair_family_canonicalizes_model_name_like_sweep_family():
    tests = _family()[:4]
    serial = repair_family(tests, "Power")
    sharded = repair_family(tests, "Power", processes=2, chunk_size=2)
    assert serial.model_name == sharded.model_name == "power"
    assert serial.model_name == sweep_family(tests, "Power").model_name
    assert serial.reports == sharded.reports


def test_run_sharded_single_shard_stays_in_process():
    # One shard has no parallelism to win; the runner must run it in
    # this very process (observable through side effects on a local).
    seen = []
    jobs = list(range(5))

    def record_chunk(chunk, payload):
        seen.extend(chunk)
        return [item + payload for item in chunk]

    results = run_sharded(record_chunk, jobs, payload=1, processes=4, chunk_size=8)
    assert results == [item + 1 for item in jobs]
    assert seen == jobs  # ran here, not in a forked worker


def test_in_process_chunks_use_the_callers_context_cache():
    # A one-chunk batch runs in this process: its contexts belong in
    # the cache the caller passed (a batch-local one without), never in
    # the process-global cache a worker keeps.
    from repro.campaign import jobs

    tests = _family()[:6]
    hidden = jobs._CONTEXT_CACHE
    hidden_lookups = None if hidden is None else hidden.hits + hidden.misses
    cache = ContextCache()
    swept = sweep_family(tests, "power", processes=2, context_cache=cache)
    assert swept.verdicts == sweep_family(tests, "power").verdicts
    assert (cache.hits, cache.misses) == (0, len(tests))
    sweep_family(tests, "power", processes=2)
    assert jobs._CONTEXT_CACHE is hidden
    if hidden is not None:
        assert hidden.hits + hidden.misses == hidden_lookups


def test_a_chunk_builds_one_simulator_per_model(monkeypatch):
    # The jobs of one batch share one models tuple: a chunk resolves
    # each model name once, not once per job.
    from repro.campaign.jobs import VerdictJob, verdict_chunk
    from repro.herd import simulator as simulator_module

    tests = two_thread_family("power", limit=12)
    models = ("tso", "power")
    jobs = [VerdictJob(test, models) for test in tests]
    expected = verdict_chunk(jobs)
    resolved = []
    real = simulator_module.get_architecture

    def counting(name):
        resolved.append(name)
        return real(name)

    monkeypatch.setattr(simulator_module, "get_architecture", counting)
    assert verdict_chunk(jobs) == expected
    assert sorted(resolved) == ["power", "tso"]
    assert expected == [
        (test.name, tuple(Simulator(model).verdict(test) for model in models))
        for test in tests
    ]


def test_sharded_bmc_batch_matches_serial():
    items = list(all_examples())[:3] + [get_test("mp"), get_test("sb+syncs")]
    serial = verify_batch(items, "power")
    sharded = verify_batch(items, "power", processes=2, chunk_size=2)
    checker = BoundedModelChecker("power")
    oracle = [
        checker.verify(item) if isinstance(item, Program) else checker.verify_litmus(item)
        for item in items
    ]

    def key(result):
        return (
            result.name,
            result.model_name,
            result.backend,
            result.safe,
            result.violated_assertion,
            result.candidates_explored,
            result.allowed_executions,
        )

    assert [key(r) for r in serial] == [key(r) for r in sharded]
    assert [key(r) for r in serial] == [key(r) for r in oracle]


# -- (b) context-cache hits == cold runs --------------------------------------------


def test_context_cache_hits_reproduce_cold_results():
    tests = _family()[:8]
    cache = ContextCache()
    for model in MODELS:
        simulator = Simulator(model)
        for test in tests:
            cold = simulator.run(test)
            warm = simulator.run(test, context=cache.get(test))
            again = simulator.run(test, context=cache.get(test))
            for cached in (warm, again):
                assert cached.allowed_outcomes == cold.allowed_outcomes
                assert cached.all_outcomes == cold.all_outcomes
                assert cached.num_candidates == cold.num_candidates
                assert cached.num_allowed == cold.num_allowed
                assert cached.verdict == cold.verdict
                assert cached.condition_holds == cold.condition_holds
    assert cache.hits > 0
    # One context per distinct test serves every model and variant.
    assert cache.misses == len(tests)


def test_context_cache_verdict_fast_path_matches_cold():
    tests = _family()
    cache = ContextCache()
    for model in ("power", "arm-llh"):
        simulator = Simulator(model)
        for test in tests:
            assert simulator.verdict(test, context=cache.get(test)) == (
                simulator.verdict(test)
            )


def test_context_cache_is_keyed_structurally_not_by_name():
    mp = get_test("mp")
    cache = ContextCache()
    clone = pickle.loads(pickle.dumps(mp))
    clone.name = "renamed-mp"
    assert test_fingerprint(mp) == test_fingerprint(clone)
    assert cache.get(mp) is cache.get(clone)


def test_context_cache_capacity_evicts_least_recently_used():
    tests = _family()[:6]
    cache = ContextCache(capacity=2)
    for test in tests:
        cache.get(test)
    assert len(cache) == 2
    assert cache.evictions == len(tests) - 2


# -- (c) cache invalidation on splice ------------------------------------------------


def test_spliced_test_never_hits_the_original_context():
    mp = get_test("mp")
    report = repair_test(mp, "power")
    assert report.needed_repair and report.success
    repaired = report.repaired

    cache = ContextCache()
    original_context = cache.get(mp)
    spliced_context = cache.get(repaired)
    # The splice changed the instruction stream: different fingerprint,
    # different context, no stale relations.
    assert test_fingerprint(mp) != test_fingerprint(repaired)
    assert spliced_context is not original_context

    simulator = Simulator("power")
    assert simulator.verdict(mp, context=cache.get(mp)) == "Allow"
    assert simulator.verdict(repaired, context=cache.get(repaired)) == "Forbid"


def test_repair_with_context_cache_matches_plain_repair():
    cache = ContextCache()
    for name in ("mp", "sb", "lb", "wrc"):
        plain = repair_test(get_test(name), "power")
        cached = repair_test(get_test(name), "power", context_cache=cache)
        assert plain.before_verdict == cached.before_verdict
        assert plain.after_verdict == cached.after_verdict
        assert plain.success == cached.success
        assert plain.mechanisms == cached.mechanisms
        assert plain.validations == cached.validations


def test_explicit_invalidation_drops_the_entry():
    mp = get_test("mp")
    cache = ContextCache()
    cache.get(mp)
    assert cache.invalidate(mp)
    assert not cache.invalidate(mp)
    assert len(cache) == 0


# -- process-boundary safety ---------------------------------------------------------


def test_event_hash_is_recomputed_on_unpickle():
    from repro.core.events import Event, MemoryWrite

    event = Event(thread=0, poi=1, eid="a", action=MemoryWrite("x", 1))
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    assert hash(clone) == hash(event)
    # A freshly built equal event must find the unpickled one in a dict.
    fresh = Event(thread=0, poi=1, eid="a", action=MemoryWrite("x", 1))
    assert {clone: "found"}[fresh] == "found"


def test_relation_and_index_caches_are_dropped_on_pickle():
    from repro.herd.enumerate import combination_contexts

    context = next(combination_contexts(get_test("mp")))
    po = context.po
    assert po.transitive_closure() is po.transitive_closure()  # memo warms
    clone = pickle.loads(pickle.dumps(po))
    assert clone._cache is None  # the memo is built on first use: no entry survives
    assert clone.pairs == po.pairs
    index_clone = pickle.loads(pickle.dumps(context.index))
    assert index_clone._mask_cache == {}
    assert index_clone.n == context.index.n
    assert index_clone.events == context.index.events


def _registry_contexts():
    cache = ContextCache(capacity=None)
    return [(test, cache.get(test)) for test in all_tests()]


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_every_architecture_pickles_and_judges_alike(name):
    """Every built-in architecture crosses a process boundary intact:
    the unpickled model's verdicts on the registry are the original's."""
    model = Model(ARCHITECTURES[name]())
    original, copy = Simulator(model), Simulator(pickle.loads(pickle.dumps(model)))
    for test, context in _registry_contexts():
        assert copy.verdict(test, context=context) == original.verdict(
            test, context=context
        ), test.name


@pytest.mark.parametrize("name", builtin_model_names())
def test_every_cat_model_pickles_and_judges_alike(name):
    model = load_builtin_model(name)
    original, copy = Simulator(model), Simulator(pickle.loads(pickle.dumps(model)))
    for test, context in _registry_contexts():
        assert copy.verdict(test, context=context) == original.verdict(
            test, context=context
        ), test.name


@pytest.mark.parametrize(
    "chip", default_power_chips() + default_arm_chips(), ids=lambda chip: chip.name
)
def test_every_chip_pickles_and_observes_alike(chip):
    """A chip's implementation and errata models survive pickling: the
    copy observes on the registry exactly what the original does."""
    import random

    copy = pickle.loads(pickle.dumps(chip))
    for test, context in _registry_contexts():
        assert copy.observed_outcomes(
            test, 10_000, random.Random(7), context
        ) == chip.observed_outcomes(test, 10_000, random.Random(7), context), test.name


def test_resolve_model_is_idempotent_and_shared():
    resolved = resolve_model("power")
    assert resolve_model(resolved) is resolved
    assert Simulator(resolved).model is resolved


def test_simulation_context_builds_combinations_lazily():
    mp = get_test("mp")
    context = SimulationContext(mp)
    # A verdict-only query against mp's register-only condition interns a
    # strict subset of the combinations.
    list(context.target_plans("standard"))
    interned_for_target = len(context._contexts)
    assert 0 < interned_for_target < len(context.combinations())
    list(context.plans("standard"))
    assert len(context._contexts) == len(context.combinations())
