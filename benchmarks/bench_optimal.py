"""The planned (optimal exploration) engine on exploding candidate grids.

Not a paper table: this benchmark times ``Simulator(engine="optimal")``
(:mod:`repro.herd.optimal`) on the workload it exists for — diy-style
tests whose rf×co candidate grid explodes combinatorially while the
consistent-execution set stays tiny.  The ``coherence_stress_family``
shape (per-thread write bursts of length ``m``) has a grid of
``(m!)^threads`` per path combination, and the engine constructs only
the consistent executions instead of enumerating the grid.

The timed region is the full ``Simulator.run`` of every size, nothing
else.  The committed baseline records, per size:

* wall-clock of that run;
* the zero-waste claim: executions-explored == consistent-executions,
  with the extension steps and dead ends of the walk;
* the grid size, counted combinatorially, and the summary, which
  matches ``engine="naive"`` at the smallest size (the only one the
  naive oracle can enumerate in reasonable time).
"""

from __future__ import annotations

import math
import time

from repro.diy.families import coherence_stress_family
from repro.herd import Simulator
from repro.herd import optimal

SIZES = (3, 6, 7)  # writes per location; the grid is (m!)^2 per combination
ROUNDS = 5


def _tests():
    return [
        coherence_stress_family("power", threads=2, writes_per_location=m)[0]
        for m in SIZES
    ]


def _summary(result) -> tuple:
    return (
        result.num_candidates,
        result.num_allowed,
        frozenset(result.allowed_outcomes),
        frozenset(result.all_outcomes),
        result.verdict,
    )


def _row(test, writes_per_location: int) -> dict:
    simulator = Simulator("power")
    start = time.perf_counter()
    result = simulator.run(test)
    seconds = time.perf_counter() - start
    if writes_per_location == SIZES[0]:
        naive = Simulator("power", engine="naive").run(test)
        assert _summary(result) == _summary(naive), "summaries must match naive"

    variant = simulator._planned_variant()
    combinations = explored = survivors = extension_steps = dead_ends = 0
    for plan in optimal.plans(test, variant):
        combinations += 1
        survivors += sum(1 for _ in plan.leaves())
        explored += plan.explored
        extension_steps += plan.extension_steps
        dead_ends += plan.dead_ends
    assert explored == survivors, "optimal must explore each survivor exactly once"
    return {
        "writes_per_location": writes_per_location,
        "grid_candidates": result.num_candidates,
        "grid_per_combination": math.factorial(writes_per_location) ** 2,
        "combinations": combinations,
        "allowed": result.num_allowed,
        "verdict": result.verdict,
        "optimal_seconds": seconds,
        "optimal_explored": explored,
        "optimal_extension_steps": extension_steps,
        "optimal_dead_ends": dead_ends,
        "survivors": survivors,
    }


def _run_all(tests):
    simulator = Simulator("power")
    for test in tests:
        simulator.run(test)


def test_optimal_engine_on_exploding_grid(benchmark):
    tests = _tests()
    # Warm-up pays the one-off costs (architecture construction, code
    # caches) outside the timed rounds.
    _run_all(tests[:1])
    benchmark.pedantic(_run_all, args=(tests,), rounds=ROUNDS, iterations=1)
    rows = [_row(test, m) for test, m in zip(tests, SIZES)]
    benchmark.extra_info["rows"] = [
        {k: (round(v, 4) if isinstance(v, float) else v) for k, v in row.items()}
        for row in rows
    ]
    for row in rows:
        assert row["optimal_explored"] == row["survivors"], "zero waste"
        # Each read has one same-value source, so every combination's
        # grid is exactly its (m!)^2 coherence orders; the walk never
        # scales with it.
        assert row["grid_candidates"] == row["grid_per_combination"] * row["combinations"]
        assert row["optimal_extension_steps"] < row["grid_candidates"]
    largest = rows[-1]
    assert largest["optimal_extension_steps"] * 1000 < largest["grid_candidates"]
