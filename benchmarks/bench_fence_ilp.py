"""Greedy-vs-ILP fence placement over the diy families.

Tracks the cost and runtime of the exact ILP placement strategy
(:mod:`repro.fences.ilp`) against the greedy baseline on the same
corpus the fence-synthesis benchmark repairs, plus the hand-built
shared-gap family where greedy provably overpays.  Asserts the
qualitative shape:

* every repairable test is repaired under both strategies;
* ``ilp_total <= greedy_total`` with a strictly positive gap (the
  corpus contains shapes greedy overpays on);
* the branch-and-bound stays cheap: the ILP pass runs within a small
  multiple of the greedy pass (the instance memo keeps repeated cycle
  shapes from re-entering the search).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.diy.families import (
    compare_placement_costs,
    extended_family,
    shared_gap_family,
    two_thread_family,
)
from repro.fences import ilp


def _run_comparison():
    tests = (
        two_thread_family("power", limit=48)
        + extended_family("power", limit=12)
        + shared_gap_family()
    )
    # Deliberately serial: the solver memo lives in module state, and a
    # sharded run would solve in worker processes while cache_stats()
    # reads the parent's counters — serial keeps the recorded hit/miss
    # numbers truthful on any core count (and comparable cross-hardware).
    ilp.clear_memo()
    comparison = compare_placement_costs(tests, "power")
    memo = ilp.cache_stats()
    return {
        "tests": comparison.num_tests,
        "greedy_total_cost": comparison.greedy_total,
        "ilp_total_cost": comparison.ilp_total,
        "cost_gap": comparison.gap,
        "ilp_strictly_cheaper_on": comparison.num_strictly_cheaper,
        "greedy_seconds": comparison.greedy_seconds,
        "ilp_seconds": comparison.ilp_seconds,
        "ilp_tests_per_second": comparison.num_tests / comparison.ilp_seconds,
        "solver_memo_hits": memo.hits,
        "solver_memo_misses": memo.misses,
    }


def test_fence_ilp_cost_and_throughput(benchmark):
    stats = run_once(benchmark, _run_comparison)
    benchmark.extra_info.update(
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in stats.items()}
    )

    # Optimality, machine-checked: never worse, strictly better somewhere.
    assert stats["ilp_total_cost"] <= stats["greedy_total_cost"]
    assert stats["cost_gap"] > 0
    assert stats["ilp_strictly_cheaper_on"] >= 1
    # The exact search must stay practical next to the greedy cover.
    assert stats["ilp_tests_per_second"] > 5
    assert stats["ilp_seconds"] < 10 * max(stats["greedy_seconds"], 0.01)
