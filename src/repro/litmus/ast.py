"""Litmus test structure and a programmatic builder.

A :class:`LitmusTest` is the in-memory form of a litmus test: initial
memory and register state, one instruction list per thread, and a final
condition (``exists``, ``~exists`` or ``forall``).

The :class:`TestBuilder` / :class:`ThreadBuilder` pair offers the
high-level vocabulary used by the registry and by the diy generator:
``store``, ``load``, ``fence``, and the dependency-carrying variants
(``load_addr_dep``, ``store_data_dep``, ``ctrl_dep``...), taking care of
register allocation and of the compare/branch boilerplate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.litmus.instructions import (
    Add,
    Branch,
    Compare,
    Fence,
    Instruction,
    Label,
    Load,
    MoveImmediate,
    Store,
    Xor,
)

RegisterValue = Union[int, str]
RegisterKey = Tuple[int, str]  # (thread index, register name)


@dataclass(frozen=True)
class ConditionAtom:
    """One equality atom of a final condition.

    ``kind`` is ``"reg"`` (a final register value, qualified by thread)
    or ``"mem"`` (a final memory value).
    """

    kind: str
    thread: Optional[int]
    name: str
    value: int

    @classmethod
    def register(cls, thread: int, register: str, value: int) -> "ConditionAtom":
        return cls("reg", thread, register, value)

    @classmethod
    def memory(cls, location: str, value: int) -> "ConditionAtom":
        return cls("mem", None, location, value)

    def holds(
        self,
        final_registers: Mapping[RegisterKey, RegisterValue],
        final_memory: Mapping[str, int],
    ) -> bool:
        if self.kind == "reg":
            return final_registers.get((self.thread, self.name)) == self.value
        return final_memory.get(self.name, 0) == self.value

    def __str__(self) -> str:
        if self.kind == "reg":
            return f"{self.thread}:{self.name}={self.value}"
        return f"{self.name}={self.value}"


@dataclass(frozen=True)
class Condition:
    """The final condition of a litmus test.

    ``kind`` is one of ``"exists"``, ``"not exists"`` or ``"forall"``;
    the atoms are a conjunction.

    * ``exists``: the test's *target outcome* is reachable iff some valid
      execution satisfies all atoms.
    * ``not exists`` / ``forall`` are the dual forms (used when a test is
      phrased as an invariant).
    """

    kind: str
    atoms: Tuple[ConditionAtom, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("exists", "not exists", "forall"):
            raise ValueError(f"unknown condition kind {self.kind!r}")

    def verdict(self, any_outcome_matches: bool, all_outcomes_match: bool) -> bool:
        """Truth value of the whole condition given the two quantified facts."""
        if self.kind == "exists":
            return any_outcome_matches
        if self.kind == "not exists":
            return not any_outcome_matches
        return all_outcomes_match

    def __str__(self) -> str:
        body = " /\\ ".join(str(atom) for atom in self.atoms)
        if self.kind == "exists":
            return f"exists ({body})"
        if self.kind == "not exists":
            return f"~exists ({body})"
        return f"forall ({body})"


@dataclass
class LitmusTest:
    """A complete litmus test."""

    name: str
    arch: str
    threads: List[List[Instruction]]
    init_registers: Dict[RegisterKey, RegisterValue] = field(default_factory=dict)
    init_memory: Dict[str, int] = field(default_factory=dict)
    condition: Optional[Condition] = None
    doc: str = ""

    def locations(self) -> Tuple[str, ...]:
        """All shared memory locations named by the test."""
        locations = set(self.init_memory)
        for value in self.init_registers.values():
            if isinstance(value, str):
                locations.add(value)
        if self.condition is not None:
            for atom in self.condition.atoms:
                if atom.kind == "mem":
                    locations.add(atom.name)
        return tuple(sorted(locations))

    def num_threads(self) -> int:
        return len(self.threads)

    def pretty(self) -> str:
        """A compact textual rendering (litmus-style)."""
        lines = [f"{self.arch.upper()} {self.name}"]
        if self.doc:
            lines.append(f'"{self.doc}"')
        inits = [f"{loc}={val}" for loc, val in sorted(self.init_memory.items())]
        inits += [
            f"{thread}:{reg}={val}"
            for (thread, reg), val in sorted(self.init_registers.items())
        ]
        lines.append("{ " + "; ".join(inits) + " }")
        for index, instructions in enumerate(self.threads):
            lines.append(f" P{index}:")
            for instruction in instructions:
                lines.append(f"   {instruction.mnemonic()}")
        if self.condition is not None:
            lines.append(str(self.condition))
        return "\n".join(lines)


class ThreadBuilder:
    """Builds one thread's instruction list, managing registers.

    Register conventions: ``rA<location>`` registers hold addresses and
    are pre-initialised; ``r1, r2, ...`` are scratch/value registers.
    """

    def __init__(self, test_builder: "TestBuilder", index: int):
        self._test = test_builder
        self.index = index
        self.instructions: List[Instruction] = []
        self._next_register = 1
        self._next_label = 0
        self._address_registers: Dict[str, str] = {}

    # -- low-level helpers --------------------------------------------------------

    def fresh_register(self) -> str:
        register = f"r{self._next_register}"
        self._next_register += 1
        return register

    def _fresh_label(self) -> str:
        label = f"LC{self.index}{self._next_label}"
        self._next_label += 1
        return label

    def address_register(self, location: str) -> str:
        """The register holding the address of *location* (allocated lazily)."""
        if location not in self._address_registers:
            register = f"rA{location}"
            self._address_registers[location] = register
            self._test.init_registers[(self.index, register)] = location
            self._test.register_location(location)
        return self._address_registers[location]

    def emit(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    # -- plain accesses -----------------------------------------------------------

    def store(self, location: str, value: int) -> None:
        """``location <- value`` through a scratch register."""
        value_register = self.fresh_register()
        self.emit(MoveImmediate(value_register, value))
        self.emit(Store(value_register, self.address_register(location)))
        self._test.register_value(value)

    def load(self, location: str) -> str:
        """``reg <- location``; returns the destination register."""
        destination = self.fresh_register()
        self.emit(Load(destination, self.address_register(location)))
        return destination

    def fence(self, name: str) -> None:
        self.emit(Fence(name))

    # -- dependency-carrying accesses ----------------------------------------------

    def _false_dep_register(self, dep_on: str) -> str:
        """``xor r, dep, dep`` — a register that is always 0 yet depends on *dep_on*."""
        zero = self.fresh_register()
        self.emit(Xor(zero, dep_on, dep_on))
        return zero

    def load_addr_dep(self, location: str, dep_on: str) -> str:
        """Load with a (false) address dependency on *dep_on*."""
        zero = self._false_dep_register(dep_on)
        destination = self.fresh_register()
        self.emit(Load(destination, self.address_register(location), index_reg=zero))
        return destination

    def store_addr_dep(self, location: str, value: int, dep_on: str) -> None:
        """Store with a (false) address dependency on *dep_on*."""
        zero = self._false_dep_register(dep_on)
        value_register = self.fresh_register()
        self.emit(MoveImmediate(value_register, value))
        self.emit(Store(value_register, self.address_register(location), index_reg=zero))
        self._test.register_value(value)

    def store_data_dep(self, location: str, value: int, dep_on: str) -> None:
        """Store of *value* whose data flows (vacuously) through *dep_on*."""
        zero = self._false_dep_register(dep_on)
        immediate = self.fresh_register()
        self.emit(MoveImmediate(immediate, value))
        total = self.fresh_register()
        self.emit(Add(total, zero, immediate))
        self.emit(Store(total, self.address_register(location)))
        self._test.register_value(value)

    def ctrl_dep(self, dep_on: str, cfence: Optional[str] = None) -> None:
        """A control dependency on *dep_on* guarding everything emitted after.

        Emits ``cmpw dep, dep; beq L; L:`` (the branch is statically taken
        to the very next instruction, so no access is skipped — the classic
        litmus idiom).  When ``cfence`` is given (``isync`` or ``isb``) it
        is placed right after the branch, turning the dependency into a
        ctrl+cfence one.
        """
        label = self._fresh_label()
        self.emit(Compare(dep_on, dep_on))
        self.emit(Branch("eq", label))
        self.emit(Label(label))
        if cfence is not None:
            self.emit(Fence(cfence))

    def load_ctrl_dep(
        self, location: str, dep_on: str, cfence: Optional[str] = None
    ) -> str:
        """Load guarded by a control (or control+cfence) dependency."""
        self.ctrl_dep(dep_on, cfence)
        return self.load(location)

    def store_ctrl_dep(
        self, location: str, value: int, dep_on: str, cfence: Optional[str] = None
    ) -> None:
        """Store guarded by a control (or control+cfence) dependency."""
        self.ctrl_dep(dep_on, cfence)
        self.store(location, value)


class TestBuilder:
    """Programmatic construction of litmus tests."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, name: str, arch: str = "power", doc: str = ""):
        self.name = name
        self.arch = arch
        self.doc = doc
        self.init_registers: Dict[RegisterKey, RegisterValue] = {}
        self.init_memory: Dict[str, int] = {}
        self._threads: List[ThreadBuilder] = []
        self._condition: Optional[Condition] = None
        self._value_pool: set = {0}

    def thread(self) -> ThreadBuilder:
        builder = ThreadBuilder(self, len(self._threads))
        self._threads.append(builder)
        return builder

    def register_location(self, location: str) -> None:
        self.init_memory.setdefault(location, 0)

    def register_value(self, value: int) -> None:
        self._value_pool.add(value)

    # -- final condition ------------------------------------------------------------

    def exists(self, atoms: Mapping[Union[Tuple[int, str], str], int]) -> None:
        self._condition = Condition("exists", self._atoms(atoms))

    def not_exists(self, atoms: Mapping[Union[Tuple[int, str], str], int]) -> None:
        self._condition = Condition("not exists", self._atoms(atoms))

    def forall(self, atoms: Mapping[Union[Tuple[int, str], str], int]) -> None:
        self._condition = Condition("forall", self._atoms(atoms))

    def _atoms(
        self, atoms: Mapping[Union[Tuple[int, str], str], int]
    ) -> Tuple[ConditionAtom, ...]:
        result = []
        for key, value in atoms.items():
            if isinstance(key, tuple):
                thread, register = key
                result.append(ConditionAtom.register(thread, register, value))
            else:
                result.append(ConditionAtom.memory(key, value))
            self.register_value(value)
        return tuple(result)

    def build(self) -> LitmusTest:
        return LitmusTest(
            name=self.name,
            arch=self.arch,
            threads=[thread.instructions for thread in self._threads],
            init_registers=dict(self.init_registers),
            init_memory=dict(self.init_memory),
            condition=self._condition,
            doc=self.doc,
        )
