"""The staged model check: per-combination memo, counted coherence, witnesses.

Every execution of one :class:`~repro.herd.enumerate.CombinationContext`
shares one memo (:meth:`~repro.core.execution.Execution.shared`), so
whatever depends only on events, po, dependencies and fences is computed
once per combination.  These tests hold the memoized check to the
unmemoized one, keep the memo on its side of a process boundary, hold
the counted coherence orders to the materialized ones, and check that a
violation's witness does not depend on the hash seed.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.core.model import Model
from repro.diy import two_thread_family
from repro.diy.families import coherence_stress_family
from repro.herd.enumerate import candidates_of_context, combination_contexts
from repro.herd.optimal import OptimalPlan
from repro.litmus.ast import TestBuilder
from repro.litmus.registry import all_tests, get_test
from repro.verification import verify_batch
from repro.verification.bmc import BoundedModelChecker

SRC = Path(__file__).resolve().parents[1] / "src"

MODELS = {name: Model(factory()) for name, factory in ARCHITECTURES.items()}


def _corpus():
    return (
        list(all_tests())
        + two_thread_family("power")
        + coherence_stress_family("power", threads=2, writes_per_location=3)
    )


def test_shared_memo_gives_the_unmemoized_check():
    """Every naive candidate, under every architecture: the check through
    the combination's warm memo equals the check of a copy with a
    private one, violations and witnesses included, and so do ppo,
    fences, prop, hb and ffence."""
    checked = mismatches = 0
    memos = []
    for test in _corpus():
        for context in combination_contexts(test):
            memos.append(context.memo)
            for candidate in candidates_of_context(context):
                execution = candidate.execution
                assert execution.memo is context.memo
                for model in MODELS.values():
                    private = dataclasses.replace(execution, memo={})
                    checked += 1
                    mismatches += model.check(
                        execution, stop_at_first=False
                    ) != model.check(private, stop_at_first=False)
                    mismatches += model.architecture.relations(
                        execution
                    ) != model.architecture.relations(private)
    assert checked > 10_000
    assert mismatches == 0
    # One memo per combination: no two combinations share one.
    assert len({id(memo) for memo in memos}) == len(memos)


def test_leaves_of_one_plan_share_its_context_memo():
    test = get_test("mp")
    plans = [OptimalPlan(context, test) for context in combination_contexts(test)]
    for plan in plans:
        for leaf in plan.leaves():
            assert leaf.candidate().execution.memo is plan.context.memo
    assert plans[0].context.memo is not plans[1].context.memo


def test_checked_executions_pickle_without_their_memo():
    test = get_test("mp+dmb+fri-rfi-ctrlisb")
    context = next(
        context for context in combination_contexts(test) if context.total_candidates
    )
    for candidate in candidates_of_context(context):
        execution = candidate.execution
        results = {name: model.check(execution) for name, model in MODELS.items()}
        assert execution.memo
        copy = pickle.loads(pickle.dumps(execution))
        assert copy == execution
        assert copy.memo == {}
        assert execution.memo  # pickling leaves the original's memo alone
        for name, model in MODELS.items():
            assert model.check(copy) == results[name]


@pytest.mark.parametrize(
    "name, model", (("mp+lwsync+addr", "power"), ("mp+dmb+addr", "arm"))
)
def test_a_planned_check_closes_each_relation_once(name, model, monkeypatch):
    """One ``hb`` per check, shared by NO THIN AIR, prop and OBSERVATION:
    in the planned check of every leaf, no closure input is closed
    twice."""
    from repro.core import bitrel

    architecture = MODELS[model].architecture
    executions = [
        leaf.candidate().execution
        for context in combination_contexts(get_test(name))
        for leaf in OptimalPlan(
            context, variant=architecture.sc_per_location_variant
        ).leaves()
    ]
    closed = []
    closure = bitrel.closure

    def counted(bits, n, col0):
        closed.append((bits, n, col0))
        return closure(bits, n, col0)

    monkeypatch.setattr(bitrel, "closure", counted)
    repeated = 0
    for execution in executions:
        closed.clear()
        MODELS[model].check(
            execution, stop_at_first=True, assume_sc_per_location=True
        )
        assert closed
        repeated += len(closed) - len(set(closed))
    assert repeated == 0


def test_sharded_sc_counterexample_matches_serial():
    """A counterexample checked under ``sc`` (whose fences function is a
    lambda, a memo key) ships back from a worker intact."""
    builder = TestBuilder("sb-sc-reachable", arch="power")
    t0 = builder.thread()
    t0.store("x", 1)
    r0 = t0.load("y")
    t1 = builder.thread()
    t1.store("y", 1)
    r1 = t1.load("x")
    builder.exists({(0, r0): 1, (1, r1): 1})
    items = [builder.build(), get_test("sb")]
    serial = verify_batch(items, "sc")
    sharded = verify_batch(items, "sc", processes=2, chunk_size=1)
    oracle = [BoundedModelChecker("sc").verify_litmus(item) for item in items]
    assert not serial[0].safe and serial[1].safe
    for left, right, single in zip(serial, sharded, oracle):
        assert (left.safe, left.counterexample, left.candidates_explored) == (
            right.safe, right.counterexample, right.candidates_explored
        ) == (single.safe, single.counterexample, single.candidates_explored)
    assert sharded[0].counterexample is not None


def _materialized_final_values(context):
    return {
        location: {
            order[-1].value if order[-1].value is not None else 0 for order in orders
        }
        for location, orders in zip(context.locations, context.co_orders)
    }


@pytest.mark.parametrize(
    "tests, naive_outcomes",
    [
        pytest.param(lambda: list(all_tests()), True, id="registry"),
        pytest.param(
            lambda: coherence_stress_family("power", writes_per_location=3),
            True,
            id="coh-stress-2x3",
        ),
        pytest.param(
            lambda: coherence_stress_family("power", writes_per_location=6),
            False,
            id="coh-stress-2x6",
        ),
    ],
)
def test_counted_coherence_matches_materialized_orders(tests, naive_outcomes):
    for test in tests():
        for context in combination_contexts(test):
            orders = context.co_orders
            co_count = math.prod(len(per_location) for per_location in orders)
            assert context.co_count == co_count
            assert context.total_candidates == (
                context.rf_count * co_count if context.feasible else 0
            )
            assert context.final_values() == _materialized_final_values(context)
            if naive_outcomes:
                # The naive oracle walks the materialized orders.
                assert OptimalPlan(context, test).all_outcomes() == {
                    candidate.outcome(test)
                    for candidate in candidates_of_context(context)
                }


_WITNESS_SCRIPT = """
from repro.cat import load_builtin_model
from repro.herd.simulator import simulate
from repro.litmus.registry import get_test

test = get_test("mp+dmb+fri-rfi-ctrlisb")
for model in ("tso", load_builtin_model("tso")):
    result = simulate(test, model, engine="naive", keep_candidates=True,
                      stop_at_first_violation=False)
    for _, check in result.forbidden_candidates:
        print(check.describe())
"""


def test_witnesses_do_not_depend_on_the_hash_seed():
    """Irreflexivity witnesses name the smallest reflexive event, not
    whichever pair a frozenset yields first."""
    runs = []
    for seed in range(1, 9):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", _WITNESS_SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
        )
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    observation = [
        line for line in outputs[0].splitlines() if "observation" in line.lower()
    ]
    assert len(observation) == 26  # 13 candidates, native and cat
    assert all(output == outputs[0] for output in outputs[1:])
