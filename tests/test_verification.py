"""Tests for the bounded model-checking substrate (Sec. 8.4)."""

import pytest

from repro.cat import load_builtin_model
from repro.litmus.registry import get_test
from repro.verification import (
    AssertStmt,
    Assign,
    BinOp,
    BoundedModelChecker,
    Const,
    FenceStmt,
    IfStmt,
    LoadStmt,
    Program,
    StoreStmt,
    Var,
    WhileStmt,
    all_examples,
    apache_example,
    postgresql_example,
    rcu_example,
    verify_batch,
    verify_litmus,
    verify_program,
)
from repro.verification.examples import dekker_example
from repro.verification.program import evaluate, expression_variables
from repro.verification.semantics import enumerate_program_paths


# -- IR basics -------------------------------------------------------------------


def test_expression_evaluation_and_variables():
    expr = BinOp("and", BinOp("==", Var("a"), Const(1)), BinOp("<", Var("b"), Const(3)))
    assert evaluate(expr, {"a": 1, "b": 2}) == 1
    assert evaluate(expr, {"a": 0, "b": 2}) == 0
    assert set(expression_variables(expr)) == {"a", "b"}
    with pytest.raises(ValueError):
        evaluate(BinOp("**", Const(1), Const(2)), {})


def test_program_constants_and_shared_variables():
    program = postgresql_example()
    assert set(program.shared_variables()) == {"flag", "latch"}
    assert 1 in program.constants() and 0 in program.constants()


# -- per-thread symbolic execution --------------------------------------------------


def test_enumerate_program_paths_forks_on_loads_and_branches():
    program = postgresql_example()
    waiter_paths = enumerate_program_paths(program, 1)
    # The waiter loads the latch (forks over the value domain); only the
    # latch==1 fork performs the second load.
    assert len(waiter_paths) >= 2
    lengths = {len(path.execution.memory_events) for path in waiter_paths}
    assert 1 in lengths and 2 in lengths


def test_control_dependencies_and_fences_are_recorded():
    program = apache_example(fenced=True)
    consumer_paths = enumerate_program_paths(program, 1)
    long_paths = [p for p in consumer_paths if len(p.execution.memory_events) == 2]
    assert long_paths
    path = long_paths[0]
    first, second = path.execution.memory_events
    assert (first, second) in set(path.execution.ctrl)
    assert (first, second) in set(path.execution.ctrl_cfence)


def test_address_dependency_flag_is_recorded():
    program = rcu_example(fenced=True)
    reader_paths = enumerate_program_paths(program, 1)
    dependent = [p for p in reader_paths if p.execution.addr]
    assert dependent, "the RCU reader must carry an address dependency"


def test_assertions_are_evaluated_per_path():
    program = Program(
        name="assert-demo",
        shared={"x": 0},
        threads=[
            (
                LoadStmt("v", "x"),
                AssertStmt(BinOp("==", Var("v"), Const(0)), message="x stays 0"),
            )
        ],
    )
    paths = enumerate_program_paths(program, 0)
    outcomes = {path.execution.load_values[0]: path.violated for path in paths}
    assert outcomes[0] is False
    assert all(violated for value, violated in outcomes.items() if value != 0)


def test_while_loop_unrolls_up_to_bound():
    program = Program(
        name="loop-demo",
        shared={"flag": 0},
        threads=[
            (
                Assign("tries", Const(0)),
                WhileStmt(
                    BinOp("<", Var("tries"), Const(3)),
                    body=(
                        LoadStmt("seen", "flag"),
                        Assign("tries", BinOp("+", Var("tries"), Const(1))),
                    ),
                    bound=2,
                ),
            )
        ],
    )
    paths = enumerate_program_paths(program, 0)
    assert max(len(path.execution.memory_events) for path in paths) == 2


# -- the checker ---------------------------------------------------------------------


def test_examples_are_safe_when_fenced_and_unsafe_otherwise():
    for fenced_program, unfenced_program in zip(all_examples(True), all_examples(False)):
        assert verify_program(fenced_program, "power").safe, fenced_program.name
        result = verify_program(unfenced_program, "power")
        assert not result.safe, unfenced_program.name
        assert result.counterexample is not None
        assert result.violated_assertion


def test_dekker_needs_full_fences_on_tso_and_power():
    assert not verify_program(dekker_example(False), "tso").safe
    assert not verify_program(dekker_example(False), "power").safe
    assert verify_program(dekker_example(True, fence="mfence"), "tso").safe
    assert verify_program(dekker_example(True, fence="sync"), "power").safe


def test_examples_are_safe_under_sc_even_unfenced():
    for program in all_examples(False):
        assert verify_program(program, "sc").safe, program.name


def test_backends_agree_on_examples():
    for program in all_examples(True) + [dekker_example(False)]:
        verdicts = {
            backend: verify_program(program, "power", backend).safe
            for backend in ("axiomatic", "multi-event", "operational")
        }
        assert len(set(verdicts.values())) == 1, (program.name, verdicts)


def test_verify_litmus_matches_herd_verdicts():
    from repro.herd import simulate

    for name in ("mp+lwsync+addr", "sb+syncs", "sb", "lb+addrs"):
        test = get_test(name)
        result = verify_litmus(test, "power", "axiomatic")
        expected_safe = simulate(test, "power").verdict == "Forbid"
        assert result.safe == expected_safe, name


def test_checker_rejects_unknown_backend_and_model():
    with pytest.raises(ValueError):
        BoundedModelChecker("power", backend="symbolic")
    with pytest.raises(TypeError):
        BoundedModelChecker(3.14)


@pytest.mark.parametrize("processes", [None, 2])
def test_verify_batch_takes_cat_models(processes):
    """A cat model decides every naive candidate; its answers are native power's."""
    items = [
        postgresql_example(),
        postgresql_example(False),
        dekker_example(True),
        dekker_example(False),
        get_test("mp"),
        get_test("mp+lwsync+addr"),
        get_test("sb+syncs"),
        get_test("iriw+lwsyncs"),
    ]
    native = verify_batch(items, "power", processes=processes, chunk_size=2)
    cat = verify_batch(items, load_builtin_model("power"), processes=processes, chunk_size=2)
    assert [(r.safe, r.violated_assertion) for r in cat] == [
        (r.safe, r.violated_assertion) for r in native
    ]
    assert {r.model_name for r in cat} == {"power"}


@pytest.mark.parametrize("backend", ["multi-event", "operational"])
def test_architecture_backends_reject_cat_models_by_name(backend):
    with pytest.raises(ValueError, match=backend):
        BoundedModelChecker(load_builtin_model("power"), backend)


def test_verification_result_describe():
    result = verify_program(postgresql_example(), "power")
    assert "SAFE" in result.describe()
    assert "PgSQL" in result.describe()
    result = verify_program(postgresql_example(False), "power")
    assert "UNSAFE" in result.describe()
