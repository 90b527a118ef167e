"""Bounded symbolic execution of the C-like IR (one thread at a time).

This mirrors the litmus instruction semantics (Sec. 5) at the level of
the verification IR: every load forks over the program's value domain,
branches are resolved concretely per fork, while-loops are unrolled up
to their bound, and the dependency relations are tracked through the
locals:

* a store whose value expression reads a local that (transitively) holds
  a loaded value carries a *data* dependency;
* a load flagged ``addr_dep_on`` carries an *address* dependency
  (pointer dereference);
* accesses under an ``if``/``while`` whose condition reads loaded values
  carry a *control* dependency (and ctrl+cfence once a control fence has
  been executed).

The result of one fork is a :class:`ProgramPath`: a
:class:`repro.litmus.semantics.ThreadExecution` (so the herd enumeration
machinery applies unchanged) plus the outcomes of the assertions the
path evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.events import Event, MemoryRead, MemoryWrite
from repro.litmus.semantics import ThreadExecution
from repro.verification.program import (
    AssertStmt,
    Assign,
    Expr,
    FenceStmt,
    IfStmt,
    LoadStmt,
    Program,
    Statement,
    StoreStmt,
    WhileStmt,
    evaluate,
    expression_variables,
)

#: Fences that end a control dependency into a ctrl+cfence one.
_CONTROL_FENCES = ("isync", "isb")


@dataclass
class AssertionOutcome:
    """One evaluated assertion."""

    message: str
    holds: bool


@dataclass
class ProgramPath:
    """One bounded execution path of one thread."""

    execution: ThreadExecution
    assertions: List[AssertionOutcome]

    @property
    def violated(self) -> bool:
        return any(not outcome.holds for outcome in self.assertions)


class _NeedValue(Exception):
    """Internal signal: the executor needs one more load-value choice."""


class _ThreadRunner:
    def __init__(self, thread: int, load_values: Tuple[int, ...]):
        self.thread = thread
        self.load_values = load_values
        self.load_index = 0
        self.locals: Dict[str, int] = {}
        self.deps: Dict[str, FrozenSet[Event]] = {}
        self.memory_events: List[Event] = []
        self.addr: List[Tuple[Event, Event]] = []
        self.data: List[Tuple[Event, Event]] = []
        self.ctrl: List[Tuple[Event, Event]] = []
        self.ctrl_cfence: List[Tuple[Event, Event]] = []
        self.fence_markers: List[Tuple[str, int]] = []
        self.control_scopes: List[List] = []  # [deps, fenced] pairs
        self.assertions: List[AssertionOutcome] = []
        self._event_counter = 0

    # -- helpers --------------------------------------------------------------

    def _expr_deps(self, expr: Expr) -> FrozenSet[Event]:
        result: Set[Event] = set()
        for name in expression_variables(expr):
            result |= self.deps.get(name, frozenset())
        return frozenset(result)

    def _new_event(self, action) -> Event:
        event = Event(
            thread=self.thread,
            poi=len(self.memory_events),
            eid=f"T{self.thread}v{self._event_counter}",
            action=action,
        )
        self._event_counter += 1
        self.memory_events.append(event)
        return event

    def _record_control(self, event: Event) -> None:
        for scope in self.control_scopes:
            scope_deps, fenced = scope
            for source in scope_deps:
                self.ctrl.append((source, event))
                if fenced:
                    self.ctrl_cfence.append((source, event))

    # -- statement execution ----------------------------------------------------

    def run(self, statements: Sequence[Statement]) -> None:
        for statement in statements:
            self._run_one(statement)

    def _run_one(self, statement: Statement) -> None:
        if isinstance(statement, Assign):
            self.locals[statement.target] = evaluate(statement.expr, self.locals)
            self.deps[statement.target] = self._expr_deps(statement.expr)
            return

        if isinstance(statement, LoadStmt):
            if self.load_index >= len(self.load_values):
                raise _NeedValue()
            value = self.load_values[self.load_index]
            self.load_index += 1
            event = self._new_event(MemoryRead(statement.shared, value))
            if statement.addr_dep_on is not None:
                for source in self.deps.get(statement.addr_dep_on, frozenset()):
                    self.addr.append((source, event))
            self._record_control(event)
            self.locals[statement.target] = value
            self.deps[statement.target] = frozenset({event})
            return

        if isinstance(statement, StoreStmt):
            value = evaluate(statement.expr, self.locals)
            event = self._new_event(MemoryWrite(statement.shared, value))
            for source in self._expr_deps(statement.expr):
                self.data.append((source, event))
            self._record_control(event)
            return

        if isinstance(statement, FenceStmt):
            if statement.name in _CONTROL_FENCES:
                for scope in self.control_scopes:
                    scope[1] = True
            self.fence_markers.append((statement.name, len(self.memory_events)))
            return

        if isinstance(statement, IfStmt):
            condition = evaluate(statement.condition, self.locals)
            scope = [self._expr_deps(statement.condition), False]
            self.control_scopes.append(scope)
            try:
                if condition:
                    self.run(statement.then_branch)
                else:
                    self.run(statement.else_branch)
            finally:
                self.control_scopes.remove(scope)
            return

        if isinstance(statement, WhileStmt):
            for _ in range(statement.bound):
                if not evaluate(statement.condition, self.locals):
                    return
                scope = [self._expr_deps(statement.condition), False]
                self.control_scopes.append(scope)
                try:
                    self.run(statement.body)
                finally:
                    self.control_scopes.remove(scope)
            return

        if isinstance(statement, AssertStmt):
            holds = bool(evaluate(statement.condition, self.locals))
            self.assertions.append(
                AssertionOutcome(message=statement.message or str(statement.condition), holds=holds)
            )
            return

        raise TypeError(f"unsupported statement {statement!r}")

    # -- result -------------------------------------------------------------------

    def finish(self) -> ProgramPath:
        fences: Dict[str, List[Tuple[Event, Event]]] = {}
        for name, marker in self.fence_markers:
            before = self.memory_events[:marker]
            after = self.memory_events[marker:]
            fences.setdefault(name, []).extend(
                (earlier, later) for earlier in before for later in after
            )
        execution = ThreadExecution(
            thread=self.thread,
            memory_events=tuple(self.memory_events),
            addr=tuple(self.addr),
            data=tuple(self.data),
            ctrl=tuple(self.ctrl),
            ctrl_cfence=tuple(self.ctrl_cfence),
            fences={name: tuple(pairs) for name, pairs in fences.items()},
            final_registers=dict(self.locals),
            load_values=tuple(self.load_values[: self.load_index]),
        )
        return ProgramPath(execution=execution, assertions=self.assertions)


def enumerate_program_paths(
    program: Program, thread: int, value_domain: Optional[Sequence[int]] = None
) -> List[ProgramPath]:
    """All bounded execution paths of one thread of the program."""
    domain = sorted(set(value_domain if value_domain is not None else program.constants()))
    if not domain:
        domain = [0]
    statements = program.threads[thread]
    results: List[ProgramPath] = []
    pending: List[Tuple[int, ...]] = [()]
    while pending:
        choices = pending.pop()
        runner = _ThreadRunner(thread, choices)
        try:
            runner.run(statements)
        except _NeedValue:
            pending.extend(choices + (value,) for value in reversed(domain))
            continue
        results.append(runner.finish())
    results.sort(key=lambda path: path.execution.load_values)
    return results
