"""Events and actions (Sec. 4.1 and Sec. 5 of the paper).

An :class:`Event` is a unique occurrence of an action during an execution:
it carries an identifier, the thread that holds it, its program-order
index within that thread, and an :class:`Action`.

Actions follow Sec. 5: memory reads/writes, register reads/writes,
branching events and fence events.  Memory events are the only events
that participate in the axioms of the model; register events, branch
events and ``iico`` edges are used to compute the dependency relations
(addr, data, ctrl, ctrl+cfence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class Action:
    """Base class for all actions."""

    def is_memory_access(self) -> bool:
        return isinstance(self, (MemoryRead, MemoryWrite))

    def is_read(self) -> bool:
        return isinstance(self, MemoryRead)

    def is_write(self) -> bool:
        return isinstance(self, MemoryWrite)

    def is_register_access(self) -> bool:
        return isinstance(self, (RegisterRead, RegisterWrite))

    def is_branch(self) -> bool:
        return isinstance(self, BranchEvent)

    def is_fence(self) -> bool:
        return isinstance(self, FenceEvent)


@dataclass(frozen=True)
class MemoryRead(Action):
    """Read of ``value`` from shared memory location ``location``."""

    location: str
    value: int

    def __str__(self) -> str:
        return f"R{self.location}={self.value}"


@dataclass(frozen=True)
class MemoryWrite(Action):
    """Write of ``value`` to shared memory location ``location``."""

    location: str
    value: int

    def __str__(self) -> str:
        return f"W{self.location}={self.value}"


@dataclass(frozen=True)
class RegisterRead(Action):
    """Read of ``value`` from thread-private register ``register``."""

    register: str
    value: int

    def __str__(self) -> str:
        return f"Rreg:{self.register}={self.value}"


@dataclass(frozen=True)
class RegisterWrite(Action):
    """Write of ``value`` to thread-private register ``register``."""

    register: str
    value: int

    def __str__(self) -> str:
        return f"Wreg:{self.register}={self.value}"


@dataclass(frozen=True)
class BranchEvent(Action):
    """A branching decision (emitted whether or not the branch is taken)."""

    taken: bool = True

    def __str__(self) -> str:
        return "branch"


@dataclass(frozen=True)
class FenceEvent(Action):
    """A fence instruction, named after the assembly mnemonic.

    ``name`` is one of ``sync``, ``lwsync``, ``eieio``, ``isync`` (Power),
    ``dmb``, ``dsb``, ``dmb.st``, ``dsb.st``, ``isb`` (ARM) or ``mfence``
    (x86/TSO).
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Event:
    """One event of a candidate execution.

    Events are ordered (and hashed) by ``(thread, poi, eid)`` so that
    relation dumps and enumeration orders are deterministic.

    Attributes
    ----------
    eid:
        Globally unique identifier (also used as the label in diagrams,
        e.g. ``a``, ``b``...).
    thread:
        Index of the thread holding the instruction; the fictitious
        initial writes live on thread ``-1``.
    poi:
        Program-order index of the instruction within its thread.
    action:
        The :class:`Action` performed.
    instruction_index:
        Index of the source instruction (several events may share it;
        they are then related by ``iico``).
    """

    thread: int
    poi: int
    eid: str
    action: Action = field(compare=False)
    instruction_index: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Events are dict keys in every interning table and relation; the
        # tuple hash is precomputed once instead of per lookup.  The value
        # matches the dataclass-generated hash over the compare fields.
        object.__setattr__(self, "_hash", hash((self.thread, self.poi, self.eid)))

    def __getstate__(self) -> dict:
        # The precomputed hash involves a str and str hashing is salted
        # per process: a hash pickled by one process is wrong in another.
        # Drop it here and recompute on unpickle, so events (inside
        # relations, executions, counterexamples) can cross the campaign
        # runtime's process boundary safely.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_hash", hash((self.thread, self.poi, self.eid)))

    # -- convenience predicates -------------------------------------------------

    def is_memory_access(self) -> bool:
        return self.action.is_memory_access()

    def is_read(self) -> bool:
        return self.action.is_read()

    def is_write(self) -> bool:
        return self.action.is_write()

    def is_branch(self) -> bool:
        return self.action.is_branch()

    def is_fence(self, name: Optional[str] = None) -> bool:
        if not self.action.is_fence():
            return False
        if name is None:
            return True
        return self.action.name == name  # type: ignore[union-attr]

    def is_init(self) -> bool:
        """True for the fictitious initial writes (thread -1)."""
        return self.thread == -1

    # -- attribute helpers -------------------------------------------------------

    @property
    def location(self) -> Optional[str]:
        """Memory location accessed, or None for non-memory events."""
        action = self.action
        if isinstance(action, (MemoryRead, MemoryWrite)):
            return action.location
        return None

    @property
    def register(self) -> Optional[str]:
        action = self.action
        if isinstance(action, (RegisterRead, RegisterWrite)):
            return action.register
        return None

    @property
    def value(self) -> Optional[int]:
        action = self.action
        if isinstance(action, (MemoryRead, MemoryWrite, RegisterRead, RegisterWrite)):
            return action.value
        return None

    def __str__(self) -> str:
        where = "init" if self.is_init() else f"T{self.thread}"
        return f"{self.eid}:{where}:{self.action}"

    def __repr__(self) -> str:
        return f"Event({self!s})"


def _cached_hash(self: Event) -> int:
    return self._hash  # type: ignore[attr-defined]


# Installed after class creation: @dataclass(frozen=True) would otherwise
# replace an in-class __hash__ with the generated tuple hash.
Event.__hash__ = _cached_hash  # type: ignore[assignment]


def proc(event: Event) -> int:
    """The thread holding the event (the paper's ``proc(e)``)."""
    return event.thread


def addr(event: Event) -> Optional[str]:
    """The memory location of the event (the paper's ``addr(e)``)."""
    return event.location


_EVENT_NAMES = "abcdefghijklmnopqrstuvwxyz"


def event_name(index: int) -> str:
    """Generate diagram-style event names: a, b, ..., z, aa, ab, ..."""
    name = ""
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, 26)
        name = _EVENT_NAMES[rem] + name
    return name
