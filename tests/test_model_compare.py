"""The model comparator, end to end: corpora, paired verdicts,
classification, witness minimality, the Session verb and the CLI.

The load-bearing facts are the paper's (Alglave-Maranget-Tautschnig
Sec. 8 / memalloy): TSO and Power are incomparable over the full corpus
(Power relaxes store buffering further, but interprets fences TSO does
not), the smallest TSO-allows/Power-forbids witnesses are the 4-event
sync-fenced cycles (``r+syncs``, ``sb+syncs``, ``wr+ww+syncs``), and on
the fence-free corpus the hierarchy is total: sc >= tso >= power.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.compare import (
    ComparisonReport,
    CorpusBudget,
    classify,
    compare_models,
    comparison_corpus,
    event_count,
    find_distinguishing_tests,
    minimal_witness,
    paired_verdicts,
    size_key,
    uses_dependencies,
    uses_fences,
)
from repro.litmus.registry import get_test
from repro.session import Session

SMALL = CorpusBudget(max_events=4)


# -- the corpus ---------------------------------------------------------------------


def test_corpus_respects_the_budget():
    budget = CorpusBudget(max_events=5, max_threads=2)
    corpus = comparison_corpus(budget)
    assert corpus, "the budget corpus must not be empty"
    for test in corpus:
        assert event_count(test) <= 5, test.name
        assert test.num_threads() <= 2, test.name


def test_corpus_is_deduplicated_and_size_sorted():
    corpus = comparison_corpus(CorpusBudget(max_events=6))
    names = [test.name for test in corpus]
    assert len(names) == len(set(names))
    keys = [size_key(test) for test in corpus]
    assert keys == sorted(keys)


def test_fence_free_corpus_has_no_fences():
    corpus = comparison_corpus(CorpusBudget(max_events=6, fences=False))
    assert corpus
    for test in corpus:
        assert not uses_fences(test), test.name


def test_dependency_free_corpus_has_no_dependency_idioms():
    corpus = comparison_corpus(
        CorpusBudget(max_events=6, fences=False, dependencies=False)
    )
    assert corpus
    for test in corpus:
        assert not uses_dependencies(test), test.name


def test_event_count_counts_memory_accesses():
    assert event_count(get_test("sb")) == 4
    assert event_count(get_test("iriw")) == 6


def test_limit_keeps_the_smallest_tests():
    full = comparison_corpus(CorpusBudget(max_events=6))
    limited = comparison_corpus(CorpusBudget(max_events=6, limit=10))
    assert [t.name for t in limited] == [t.name for t in full[:10]]


def test_bad_budgets_are_rejected():
    with pytest.raises(ValueError):
        CorpusBudget(max_events=3)
    with pytest.raises(ValueError):
        CorpusBudget(max_threads=1)
    with pytest.raises(ValueError):
        CorpusBudget(limit=0)


# -- the paper's separations --------------------------------------------------------


def test_tso_vs_power_rediscovers_the_sync_separators():
    report = compare_models("tso", "power", budget=SMALL)
    assert report.verdict == "incomparable"
    # The minimal TSO-allows/Power-forbids witness is a 4-event
    # sync-fenced cycle; sb+syncs is rediscovered among the separators.
    assert report.witness_a is not None
    assert report.witness_a.events == 4
    assert report.witness_a.name == "r+syncs"
    assert "sb+syncs" in report.distinguishing
    assert report.verdicts_of("sb+syncs") == ("Allow", "Forbid")
    # The converse direction exists too (Power relaxes what TSO keeps).
    assert report.witness_b is not None
    assert report.verdicts_of(report.witness_b.name) == ("Forbid", "Allow")


@pytest.mark.parametrize(
    "strong,weak", [("sc", "tso"), ("tso", "power"), ("sc", "power")]
)
def test_fence_free_hierarchy_is_total(strong, weak):
    budget = CorpusBudget(max_events=6, fences=False)
    report = compare_models(strong, weak, budget=budget)
    assert report.verdict == "stronger", report.describe()
    assert report.witness_a is None
    assert report.witness_b is not None


def test_model_compared_with_itself_is_equivalent_on_corpus():
    report = compare_models("power", "power", budget=SMALL)
    assert report.verdict == "equivalent-on-corpus"
    assert report.witness_a is None and report.witness_b is None
    assert report.distinguishing == ()
    assert report.equivalent


# -- paired verdicts: sharded == serial ---------------------------------------------


def test_sharded_paired_verdicts_match_serial():
    corpus = comparison_corpus(CorpusBudget(max_events=4, limit=40))
    serial = paired_verdicts(corpus, ("tso", "power"))
    sharded = paired_verdicts(corpus, ("tso", "power"), processes=2)
    assert sharded == serial


def test_session_compare_shards_over_the_warm_pool():
    with Session(model="power", processes=2) as session:
        report = session.compare("tso", "power", budget=SMALL)
    assert report.verdict == "incomparable"
    assert report.witness_a.name == "r+syncs"


def test_session_compare_defaults_to_the_session_model():
    with Session(model="power", processes=1) as session:
        report = session.compare("tso", budget=SMALL)
    assert report.model_b == "power"


# -- witness minimality -------------------------------------------------------------


def test_witness_is_minimal_against_a_brute_force_scan():
    budget = CorpusBudget(max_events=5)
    report = compare_models("tso", "power", budget=budget)
    by_name = {test.name: test for test in comparison_corpus(budget)}
    brute = sorted(
        (
            size_key(by_name[name])
            for name in report.distinguishing
            if report.verdicts_of(name) == ("Allow", "Forbid")
        ),
    )
    assert report.witness_a is not None
    assert size_key(by_name[report.witness_a.name]) == brute[0]


def test_minimality_recheck_sweeps_smaller_corpus_members():
    # The caller hands over only sb+syncs: distinguishing, but not
    # minimal.  With a budget alongside, the re-check must sweep the
    # smaller corpus members and land on r+syncs instead.
    report = compare_models(
        "tso", "power", tests=[get_test("sb+syncs")], budget=SMALL
    )
    assert report.witness_a is not None
    assert report.witness_a.name == "r+syncs"
    # Without the budget the supplied tests are the whole world.
    unchecked = compare_models("tso", "power", tests=[get_test("sb+syncs")])
    assert unchecked.witness_a.name == "sb+syncs"


# -- the violates/satisfies filter --------------------------------------------------


def test_find_distinguishing_tests_matches_the_known_separators():
    matches = find_distinguishing_tests(
        violates="power", satisfies="tso", budget=SMALL
    )
    assert [test.name for test in matches] == [
        "r+syncs",
        "sb+syncs",
        "wr+ww+syncs",
    ]


def test_find_distinguishing_tests_requires_a_model():
    with pytest.raises(ValueError):
        find_distinguishing_tests(budget=SMALL)


# -- classification and report protocol ---------------------------------------------


def test_classify_covers_all_four_verdicts():
    allow_a = ("t1", "Allow", "Forbid", 4, 2)
    allow_b = ("t2", "Forbid", "Allow", 4, 2)
    same = ("t3", "Allow", "Allow", 4, 2)
    assert classify([allow_a, allow_b]) == "incomparable"
    assert classify([allow_b, same]) == "stronger"
    assert classify([allow_a, same]) == "weaker"
    assert classify([same]) == "equivalent-on-corpus"


def test_minimal_witness_orders_by_events_threads_name():
    rows = [
        ("zz", "Allow", "Forbid", 4, 2),
        ("aa", "Allow", "Forbid", 6, 2),
        ("mm", "Allow", "Forbid", 4, 3),
    ]
    witness = minimal_witness(rows, "a", "b", "a")
    assert witness.name == "zz"
    assert minimal_witness(rows, "a", "b", "b") is None


def test_report_json_round_trips():
    report = compare_models("tso", "power", budget=SMALL)
    assert isinstance(report, ComparisonReport)
    assert json.loads(report.to_json()) == report.to_dict()
    payload = report.to_dict()
    assert payload["type"] == "model-comparison"
    assert payload["witness_a"]["test"] == "r+syncs"
    assert payload["budget"]["max_events"] == 4


def test_describe_names_both_witnesses():
    text = compare_models("tso", "power", budget=SMALL).describe()
    assert "incomparable" in text
    assert "tso allows r+syncs" in text


# -- the command line ---------------------------------------------------------------


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.compare", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=__file__.rsplit("/tests/", 1)[0],
    )


def test_cli_compares_two_models():
    done = _run_cli("tso", "power", "--events", "4")
    assert done.returncode == 0, done.stderr
    assert "incomparable" in done.stdout
    assert "r+syncs" in done.stdout


def test_cli_json_output_is_the_report_dict():
    done = _run_cli("tso", "power", "--events", "4", "--json")
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["verdict"] == "incomparable"
    assert payload["witness_a"]["test"] == "r+syncs"


def test_cli_filter_mode_lists_separators():
    done = _run_cli(
        "--violates", "power", "--satisfies", "tso", "--events", "4"
    )
    assert done.returncode == 0, done.stderr
    assert "sb+syncs" in done.stdout


def test_cli_usage_errors_exit_2():
    assert _run_cli("tso").returncode == 2
    assert _run_cli("tso", "power", "--violates", "sc").returncode == 2


def test_cli_unknown_engine_is_a_usage_error():
    done = _run_cli("tso", "power", "--engine", "bogus")
    assert done.returncode == 2
    assert "invalid choice: 'bogus'" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_out_of_range_budget_is_a_usage_error():
    done = _run_cli("tso", "power", "--events", "3")
    assert done.returncode == 2
    assert "max_events must be at least 4" in done.stderr
    assert "Traceback" not in done.stderr
