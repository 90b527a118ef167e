"""Tests for the instruction semantics (events, iico-derived dependencies, fences)."""

import pytest

from repro.litmus.ast import TestBuilder
from repro.litmus.instructions import (
    Add,
    Branch,
    Compare,
    CompareImmediate,
    Fence,
    Label,
    Load,
    MoveImmediate,
    Store,
    Xor,
)
from repro.litmus.semantics import (
    SemanticsError,
    enumerate_thread_paths,
    thread_init_registers,
    value_domain_of,
    _run_thread,
)


def test_store_produces_write_event_with_value():
    path = _run_thread(
        0,
        [MoveImmediate("r1", 1), Store("r1", "rAx")],
        {"rAx": "x"},
        (),
    )
    assert len(path.memory_events) == 1
    write = path.memory_events[0]
    assert write.is_write() and write.location == "x" and write.value == 1


def test_load_consumes_oracle_value_and_sets_register():
    path = _run_thread(0, [Load("r1", "rAx")], {"rAx": "x"}, (7,))
    read = path.memory_events[0]
    assert read.is_read() and read.location == "x" and read.value == 7
    assert path.final_registers["r1"] == 7


def test_address_dependency_via_xor_index():
    instructions = [
        Load("r1", "rAx"),
        Xor("r3", "r1", "r1"),
        Load("r5", "rAy", "r3"),
    ]
    path = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, (1, 0))
    first, second = path.memory_events
    assert (first, second) in set(path.addr)
    assert path.data == () and path.ctrl == ()


def test_data_dependency_via_xor_and_add():
    instructions = [
        Load("r1", "rAx"),
        Xor("r3", "r1", "r1"),
        MoveImmediate("r4", 1),
        Add("r5", "r3", "r4"),
        Store("r5", "rAy"),
    ]
    path = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, (1,))
    read, write = path.memory_events
    assert write.value == 1  # xor cancels, the immediate flows through
    assert (read, write) in set(path.data)
    assert (read, write) not in set(path.addr)


def test_true_data_dependency_stores_loaded_value():
    instructions = [Load("r1", "rAx"), Store("r1", "rAy")]
    path = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, (3,))
    read, write = path.memory_events
    assert write.value == 3
    assert (read, write) in set(path.data)


def test_control_dependency_to_store():
    instructions = [
        Load("r1", "rAx"),
        Compare("r1", "r1"),
        Branch("eq", "L0"),
        Label("L0"),
        MoveImmediate("r2", 1),
        Store("r2", "rAy"),
    ]
    path = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, (1,))
    read, write = path.memory_events
    assert (read, write) in set(path.ctrl)
    assert (read, write) not in set(path.ctrl_cfence)


def test_control_cfence_dependency_to_load():
    instructions = [
        Load("r1", "rAx"),
        Compare("r1", "r1"),
        Branch("eq", "L0"),
        Label("L0"),
        Fence("isync"),
        Load("r2", "rAy"),
    ]
    path = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, (1, 0))
    first, second = path.memory_events
    assert (first, second) in set(path.ctrl)
    assert (first, second) in set(path.ctrl_cfence)


def test_branch_taken_skips_instructions():
    instructions = [
        Load("r1", "rAx"),
        CompareImmediate("r1", 1),
        Branch("eq", "Lend"),
        MoveImmediate("r2", 1),
        Store("r2", "rAy"),
        Label("Lend"),
    ]
    taken = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, (1,))
    fallthrough = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, (0,))
    assert len(taken.memory_events) == 1  # the store is skipped
    assert len(fallthrough.memory_events) == 2


def test_fence_relation_spans_surrounding_accesses_only():
    instructions = [
        MoveImmediate("r1", 1),
        Store("r1", "rAx"),
        Fence("lwsync"),
        MoveImmediate("r2", 1),
        Store("r2", "rAy"),
    ]
    path = _run_thread(0, instructions, {"rAx": "x", "rAy": "y"}, ())
    first, second = path.memory_events
    assert path.fences["lwsync"] == ((first, second),)


def test_fence_relation_empty_when_leading_or_trailing():
    path = _run_thread(
        0,
        [Fence("sync"), MoveImmediate("r1", 1), Store("r1", "rAx")],
        {"rAx": "x"},
        (),
    )
    assert path.fences.get("sync", ()) == ()


def test_backward_branch_rejected():
    instructions = [
        Label("L0"),
        Load("r1", "rAx"),
        CompareImmediate("r1", 0),
        Branch("eq", "L0"),
    ]
    with pytest.raises(SemanticsError):
        _run_thread(0, instructions, {"rAx": "x"}, (0,))


def test_missing_address_register_rejected():
    with pytest.raises(SemanticsError):
        _run_thread(0, [Load("r1", "r9")], {}, (0,))


def test_enumerate_thread_paths_counts_value_choices():
    instructions = [Load("r1", "rAx"), Load("r2", "rAy")]
    paths = enumerate_thread_paths(0, instructions, {"rAx": "x", "rAy": "y"}, [0, 1])
    assert len(paths) == 4
    assert {path.load_values for path in paths} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_enumerate_thread_paths_forks_on_branch_outcomes():
    instructions = [
        Load("r1", "rAx"),
        CompareImmediate("r1", 1),
        Branch("eq", "Lend"),
        MoveImmediate("r2", 1),
        Store("r2", "rAy"),
        Label("Lend"),
    ]
    paths = enumerate_thread_paths(0, instructions, {"rAx": "x", "rAy": "y"}, [0, 1])
    events_per_value = {path.load_values[0]: len(path.memory_events) for path in paths}
    assert events_per_value == {0: 2, 1: 1}


def test_value_domain_and_init_registers_from_builder():
    builder = TestBuilder("t", arch="power")
    t0 = builder.thread()
    t0.store("x", 2)
    t1 = builder.thread()
    r1 = t1.load("x")
    builder.exists({(1, r1): 2})
    test = builder.build()
    assert value_domain_of(test) == [0, 2]
    assert thread_init_registers(test, 0) == {"rAx": "x"}
    assert thread_init_registers(test, 1) == {"rAx": "x"}
