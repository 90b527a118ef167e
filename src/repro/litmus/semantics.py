"""Instruction semantics (Sec. 5): from instructions to events and dependencies.

Each thread of a litmus test is executed symbolically into a *thread
path*: the sequence of memory events it performs, together with the
dependency relations (addr, data, ctrl, ctrl+cfence) and the per-fence
relations over those events, plus its final register state.

Because the values read from memory are not known before the data-flow
(rf) is chosen, the execution is parameterised by the values returned by
loads: :func:`enumerate_thread_paths` explores every assignment of load
values drawn from the test's (small) value domain, yielding one
:class:`ThreadExecution` per assignment/control path.  The herd
enumerator then combines one path per thread and keeps the combinations
for which a well-formed read-from map exists.

Dependency tracking follows the dd-reg construction of Fig. 22: for
every register we maintain the set of memory *read events* its current
value (transitively) depends on; address/data/control dependencies are
then read off the dependency sets of the registers feeding each access's
address port, value port, or branch condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.events import Event, FenceEvent, MemoryRead, MemoryWrite
from repro.litmus.ast import LitmusTest, RegisterValue
from repro.litmus.instructions import (
    Add,
    Branch,
    Compare,
    CompareImmediate,
    Fence,
    Instruction,
    Label,
    Load,
    MoveImmediate,
    Store,
    Xor,
)

Pair = Tuple[Event, Event]


class SemanticsError(ValueError):
    """Raised when a thread's program cannot be executed (bad register, label...)."""


@dataclass(frozen=True)
class ThreadExecution:
    """One control/data path of one thread.

    Read-only once built: a :class:`~repro.campaign.context.ContextCache`
    shares the paths of one thread program across every test that
    contains it, so the sequences are tuples and nothing may mutate the
    two mappings.
    """

    thread: int
    memory_events: Tuple[Event, ...]
    addr: Tuple[Pair, ...]
    data: Tuple[Pair, ...]
    ctrl: Tuple[Pair, ...]
    ctrl_cfence: Tuple[Pair, ...]
    fences: Dict[str, Tuple[Pair, ...]]
    final_registers: Dict[str, RegisterValue]
    load_values: Tuple[int, ...]

    @property
    def reads(self) -> List[Event]:
        return [e for e in self.memory_events if e.is_read()]

    @property
    def writes(self) -> List[Event]:
        return [e for e in self.memory_events if e.is_write()]


class _NeedValue(Exception):
    """Internal signal: the executor needs one more load value choice."""


@dataclass
class _BranchScope:
    """A branch whose condition depends on `deps`; `fenced` becomes True
    once a control fence (isync/isb) has been executed after the branch."""

    deps: FrozenSet[Event]
    fenced: bool = False


def _run_thread(
    thread: int,
    instructions: Sequence[Instruction],
    init_registers: Mapping[str, RegisterValue],
    load_values: Tuple[int, ...],
) -> ThreadExecution:
    """Execute one thread with the given load-value choices.

    Raises :class:`_NeedValue` when the program performs more loads than
    there are values in ``load_values``.
    """
    registers: Dict[str, RegisterValue] = dict(init_registers)
    deps: Dict[str, FrozenSet[Event]] = {reg: frozenset() for reg in registers}

    memory_events: List[Event] = []
    addr_pairs: List[Pair] = []
    data_pairs: List[Pair] = []
    ctrl_pairs: List[Pair] = []
    ctrl_cfence_pairs: List[Pair] = []
    fence_markers: List[Tuple[str, int]] = []
    branch_scopes: List[_BranchScope] = []

    cr0_equal: Optional[bool] = None
    cr0_deps: FrozenSet[Event] = frozenset()

    load_index = 0
    event_counter = 0

    labels = {
        instruction.name: position
        for position, instruction in enumerate(instructions)
        if isinstance(instruction, Label)
    }

    def register_value(name: str) -> RegisterValue:
        if name not in registers:
            # Uninitialised registers read as 0 (litmus convention).
            registers[name] = 0
            deps.setdefault(name, frozenset())
        return registers[name]

    def register_deps(name: str) -> FrozenSet[Event]:
        register_value(name)
        return deps.get(name, frozenset())

    def effective_location(addr_reg: str, index_reg: Optional[str]) -> str:
        base = register_value(addr_reg)
        location: Optional[str] = base if isinstance(base, str) else None
        offset = 0 if isinstance(base, str) else int(base)
        if index_reg is not None:
            index = register_value(index_reg)
            if isinstance(index, str):
                location = index
            else:
                offset += int(index)
        if location is None:
            raise SemanticsError(
                f"thread {thread}: no address register holds a location "
                f"(addr_reg={addr_reg!r}, index_reg={index_reg!r})"
            )
        if offset != 0:
            raise SemanticsError(
                f"thread {thread}: non-zero address offsets are not supported"
            )
        return location

    def new_memory_event(action) -> Event:
        nonlocal event_counter
        event = Event(
            thread=thread,
            poi=len(memory_events),
            eid=f"T{thread}e{event_counter}",
            action=action,
        )
        event_counter += 1
        memory_events.append(event)
        return event

    def record_control_dependencies(event: Event) -> None:
        for scope in branch_scopes:
            for source in scope.deps:
                ctrl_pairs.append((source, event))
                if scope.fenced:
                    ctrl_cfence_pairs.append((source, event))

    position = 0
    while position < len(instructions):
        instruction = instructions[position]
        position += 1

        if isinstance(instruction, Label):
            continue

        if isinstance(instruction, MoveImmediate):
            registers[instruction.dst] = instruction.value
            deps[instruction.dst] = frozenset()
            continue

        if isinstance(instruction, (Xor, Add)):
            left = register_value(instruction.left)
            right = register_value(instruction.right)
            if isinstance(left, str) or isinstance(right, str):
                raise SemanticsError(
                    f"thread {thread}: arithmetic on address values is not supported"
                )
            if isinstance(instruction, Xor):
                result: RegisterValue = int(left) ^ int(right)
            else:
                result = int(left) + int(right)
            registers[instruction.dst] = result
            deps[instruction.dst] = register_deps(instruction.left) | register_deps(
                instruction.right
            )
            continue

        if isinstance(instruction, Compare):
            left = register_value(instruction.left)
            right = register_value(instruction.right)
            cr0_equal = left == right
            cr0_deps = register_deps(instruction.left) | register_deps(instruction.right)
            continue

        if isinstance(instruction, CompareImmediate):
            left = register_value(instruction.reg)
            cr0_equal = left == instruction.value
            cr0_deps = register_deps(instruction.reg)
            continue

        if isinstance(instruction, Branch):
            if cr0_equal is None:
                raise SemanticsError(
                    f"thread {thread}: branch before any comparison"
                )
            branch_scopes.append(_BranchScope(deps=cr0_deps))
            taken = cr0_equal if instruction.condition == "eq" else not cr0_equal
            if taken:
                if instruction.label not in labels:
                    raise SemanticsError(
                        f"thread {thread}: unknown branch label {instruction.label!r}"
                    )
                target = labels[instruction.label]
                if target < position - 1:
                    raise SemanticsError(
                        f"thread {thread}: backward branches are not supported"
                    )
                position = target
            continue

        if isinstance(instruction, Fence):
            if instruction.is_control_fence():
                for scope in branch_scopes:
                    scope.fenced = True
            fence_markers.append((instruction.name, len(memory_events)))
            continue

        if isinstance(instruction, Load):
            location = effective_location(instruction.addr_reg, instruction.index_reg)
            if load_index >= len(load_values):
                raise _NeedValue()
            value = load_values[load_index]
            load_index += 1
            event = new_memory_event(MemoryRead(location, value))
            address_deps = register_deps(instruction.addr_reg)
            if instruction.index_reg is not None:
                address_deps |= register_deps(instruction.index_reg)
            for source in address_deps:
                addr_pairs.append((source, event))
            record_control_dependencies(event)
            registers[instruction.dst] = value
            deps[instruction.dst] = frozenset({event})
            continue

        if isinstance(instruction, Store):
            location = effective_location(instruction.addr_reg, instruction.index_reg)
            value = register_value(instruction.src)
            if isinstance(value, str):
                raise SemanticsError(
                    f"thread {thread}: storing an address value is not supported"
                )
            event = new_memory_event(MemoryWrite(location, int(value)))
            address_deps = register_deps(instruction.addr_reg)
            if instruction.index_reg is not None:
                address_deps |= register_deps(instruction.index_reg)
            for source in address_deps:
                addr_pairs.append((source, event))
            for source in register_deps(instruction.src):
                data_pairs.append((source, event))
            record_control_dependencies(event)
            continue

        raise SemanticsError(f"unsupported instruction {instruction!r}")

    fences: Dict[str, List[Pair]] = {}
    for name, marker in fence_markers:
        before = memory_events[:marker]
        after = memory_events[marker:]
        fences.setdefault(name, []).extend(
            (earlier, later) for earlier in before for later in after
        )

    return ThreadExecution(
        thread=thread,
        memory_events=tuple(memory_events),
        addr=tuple(addr_pairs),
        data=tuple(data_pairs),
        ctrl=tuple(ctrl_pairs),
        ctrl_cfence=tuple(ctrl_cfence_pairs),
        fences={name: tuple(pairs) for name, pairs in fences.items()},
        final_registers=dict(registers),
        load_values=tuple(load_values[:load_index]),
    )


def enumerate_thread_paths(
    thread: int,
    instructions: Sequence[Instruction],
    init_registers: Mapping[str, RegisterValue],
    value_domain: Iterable[int],
) -> List[ThreadExecution]:
    """Every control/data path of a thread over the given value domain.

    One path is produced per assignment of values to the loads the path
    performs; branches are resolved concretely by each assignment.
    """
    values = sorted(set(int(v) for v in value_domain)) or [0]
    walk = _walk_thread_paths(thread, instructions, init_registers, values)
    results = [path for path in walk if path is not None]
    results.sort(key=lambda path: path.load_values)
    return results


def _walk_thread_paths(
    thread: int,
    instructions: Sequence[Instruction],
    init_registers: Mapping[str, RegisterValue],
    values: Sequence[int],
) -> Iterator[Optional[ThreadExecution]]:
    """Run a thread once per choice of load values over the sorted
    *values*, depth first: each run's path, or ``None`` for a run that
    forked on a load."""
    pending: List[Tuple[int, ...]] = [()]
    while pending:
        choices = pending.pop()
        try:
            path = _run_thread(thread, instructions, init_registers, choices)
        except _NeedValue:
            # Fork: the next load can return any value in the domain.
            path = None
            pending.extend(choices + (value,) for value in reversed(values))
        yield path


def check_runnable(test: LitmusTest, steps: int) -> None:
    """Walk the threads of *test* as :func:`enumerate_thread_paths`
    does until about *steps* instructions have run, raising
    :class:`SemanticsError` where a run fails.

    A dry run bounded whatever the test's size: the walk is depth
    first, so a fault met early is found and one met late may not be.
    """
    values = value_domain_of(test)
    for index, instructions in enumerate(test.threads):
        walk = _walk_thread_paths(
            index, instructions, thread_init_registers(test, index), values
        )
        for _ in walk:
            steps -= max(len(instructions), 1)
            if steps <= 0:
                return


def value_domain_of(test: LitmusTest) -> List[int]:
    """The set of integer values that can flow through the test.

    Collected from immediates, the initial memory and register state and
    the final condition.  0 is always included (the initial value of
    every location).
    """
    values: Set[int] = {0}
    for instructions in test.threads:
        for instruction in instructions:
            if isinstance(instruction, MoveImmediate) and isinstance(instruction.value, int):
                values.add(instruction.value)
            if isinstance(instruction, CompareImmediate):
                values.add(instruction.value)
    values.update(test.init_memory.values())
    for value in test.init_registers.values():
        if isinstance(value, int):
            values.add(value)
    if test.condition is not None:
        for atom in test.condition.atoms:
            values.add(atom.value)
    return sorted(values)


def thread_init_registers(test: LitmusTest, thread: int) -> Dict[str, RegisterValue]:
    """The initial register state of one thread."""
    return {
        register: value
        for (owner, register), value in test.init_registers.items()
        if owner == thread
    }
