"""Evaluation of cat models over candidate executions.

A :class:`CatModel` behaves like a built-in :class:`repro.core.model.Model`:
it has a ``name`` and a ``check(execution)`` method returning a
:class:`repro.core.model.CheckResult`, so it can be passed directly to
the herd simulator, the hardware campaign or the verification backend.

The built-in identifiers available to models are the execution relations
of Sec. 4.1 (po, po-loc, rf/rfe/rfi, co/coe/coi, fr/fre/fri, com), the
dependency relations of Sec. 5.2 (addr, data, ctrl, ctrl+isync,
ctrl+isb), the derived rdw and detour relations of Fig. 27/28, the
identity relation ``id`` and one relation per fence mnemonic (sync,
lwsync, eieio, isync, dmb, dsb, dmb.st, dsb.st, isb, mfence).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.cat import ast
from repro.cat.parser import parse_cat
from repro.core.axioms import AxiomViolation
from repro.core.execution import Execution
from repro.core.model import CheckResult
from repro.core.relation import Relation


class CatEvaluationError(ValueError):
    """Raised when a cat model references an unknown relation."""


_FENCE_NAMES = (
    "sync",
    "lwsync",
    "eieio",
    "isync",
    "dmb",
    "dsb",
    "dmb.st",
    "dsb.st",
    "isb",
    "mfence",
)


def builtin_environment(execution: Execution) -> Dict[str, Relation]:
    """The relations every cat model can refer to."""
    env: Dict[str, Relation] = {
        "po": execution.po,
        "po-loc": execution.po_loc,
        "rf": execution.rf,
        "rfe": execution.rfe,
        "rfi": execution.rfi,
        "co": execution.co,
        "coe": execution.coe,
        "coi": execution.coi,
        "fr": execution.fr,
        "fre": execution.fre,
        "fri": execution.fri,
        "com": execution.com,
        "addr": execution.addr,
        "data": execution.data,
        "ctrl": execution.ctrl,
        "ctrl+isync": execution.ctrl_cfence,
        "ctrl+isb": execution.ctrl_cfence,
        "ctrlisync": execution.ctrl_cfence,
        "ctrlisb": execution.ctrl_cfence,
        "rdw": execution.rdw,
        "detour": execution.detour,
        "id": execution.shared(_identity),
        "rmw": execution.rmw,
    }
    for fence in _FENCE_NAMES:
        env[fence] = execution.fence(fence)
    return env


def _identity(execution: Execution) -> Relation:
    """``id`` over the memory events, packed on the execution's own index."""
    return Relation.from_bits(execution.po._index, 0).optional(execution.memory_events)


class _Evaluator:
    def __init__(self, execution: Execution, environment: Dict[str, Relation]):
        self.execution = execution
        self.environment = environment

    def _direction_set(self, direction: str):
        execution = self.execution
        if direction == "R":
            return execution.reads
        if direction == "W":
            return execution.writes
        return execution.memory_events

    def evaluate(self, expr: ast.Expr) -> Relation:
        execution = self.execution
        if isinstance(expr, ast.EmptyRel):
            return Relation.empty()
        if isinstance(expr, ast.Var):
            if expr.name not in self.environment:
                known = ", ".join(sorted(self.environment))
                raise CatEvaluationError(
                    f"unknown relation {expr.name!r}; known relations: {known}"
                )
            return self.environment[expr.name]
        if isinstance(expr, ast.Union):
            return self.evaluate(expr.left) | self.evaluate(expr.right)
        if isinstance(expr, ast.Intersection):
            return self.evaluate(expr.left) & self.evaluate(expr.right)
        if isinstance(expr, ast.Difference):
            return self.evaluate(expr.left) - self.evaluate(expr.right)
        if isinstance(expr, ast.Sequence):
            return self.evaluate(expr.left).seq(self.evaluate(expr.right))
        if isinstance(expr, ast.TransitiveClosure):
            return self.evaluate(expr.operand).transitive_closure()
        if isinstance(expr, ast.ReflexiveTransitiveClosure):
            return self.evaluate(expr.operand).reflexive_transitive_closure(
                execution.memory_events
            )
        if isinstance(expr, ast.Optional_):
            return self.evaluate(expr.operand).optional(execution.memory_events)
        if isinstance(expr, ast.Inverse):
            return self.evaluate(expr.operand).inverse()
        if isinstance(expr, ast.DirectionFilter):
            operand = self.evaluate(expr.operand)
            return operand.restrict(
                self._direction_set(expr.source), self._direction_set(expr.target)
            )
        raise CatEvaluationError(f"cannot evaluate expression {expr!r}")


class CatModel:
    """A memory model defined by a cat program."""

    def __init__(self, program: ast.CatProgram):
        self.program = program

    @property
    def name(self) -> str:
        return self.program.name

    # -- evaluation ----------------------------------------------------------------

    def relations(self, execution: Execution) -> Dict[str, Relation]:
        """Evaluate every let-bound relation of the model over an execution."""
        environment = builtin_environment(execution)
        evaluator = _Evaluator(execution, environment)
        for statement in self.program.statements:
            if isinstance(statement, ast.Let):
                environment[statement.name] = evaluator.evaluate(statement.expr)
            elif isinstance(statement, ast.LetRec):
                self._evaluate_letrec(statement, evaluator, environment)
        return environment

    @staticmethod
    def _evaluate_letrec(
        statement: ast.LetRec, evaluator: _Evaluator, environment: Dict[str, Relation]
    ) -> None:
        """Least-fixpoint semantics for mutually recursive bindings."""
        for name, _ in statement.bindings:
            environment[name] = Relation.empty()
        while True:
            changed = False
            for name, expr in statement.bindings:
                value = evaluator.evaluate(expr)
                if value != environment[name]:
                    environment[name] = value
                    changed = True
            if not changed:
                return

    def check(self, execution: Execution, stop_at_first: bool = False) -> CheckResult:
        """Check every acyclic/irreflexive/empty requirement of the model."""
        environment = builtin_environment(execution)
        evaluator = _Evaluator(execution, environment)
        violations: List[AxiomViolation] = []

        check_index = 0
        for statement in self.program.statements:
            if isinstance(statement, ast.Let):
                environment[statement.name] = evaluator.evaluate(statement.expr)
                continue
            if isinstance(statement, ast.LetRec):
                self._evaluate_letrec(statement, evaluator, environment)
                continue
            assert isinstance(statement, ast.Check)
            check_index += 1
            label = statement.name or f"{statement.kind}-{check_index}"
            relation = evaluator.evaluate(statement.expr)
            violation: Optional[AxiomViolation] = None
            if statement.kind == "acyclic":
                cycle = relation.find_cycle()
                if cycle is not None:
                    violation = AxiomViolation(label, tuple(cycle))
            elif statement.kind == "irreflexive":
                event = relation.first_reflexive()
                if event is not None:
                    violation = AxiomViolation(label, (event,))
            else:  # empty
                if relation:
                    violation = AxiomViolation(label, min(relation.pairs))
            if violation is not None:
                violations.append(violation)
                if stop_at_first:
                    return CheckResult(False, tuple(violations))

        return CheckResult(not violations, tuple(violations))

    def allows(self, execution: Execution) -> bool:
        return self.check(execution, stop_at_first=True).allowed

    def __repr__(self) -> str:
        return f"CatModel({self.name})"


def load_cat_model(source: str, name: str = "cat-model") -> CatModel:
    """Parse cat source text into a ready-to-use model."""
    return CatModel(parse_cat(source, name))
