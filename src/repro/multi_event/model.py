"""A multi-event axiomatic model in the style of Mador-Haim et al. (CAV 2012).

The distinguishing feature of that family of models is the event
explosion: the propagation of a write ``w`` is represented by one event
``prop(w, T)`` per thread ``T`` rather than by a single write event.
The constraints the model places on executions are (experimentally) the
same as the single-event model of this paper, but every relational check
runs over the enlarged event set.

This module materialises exactly that cost:

* :func:`lift_relation` replaces every write by its per-thread
  propagation copies (reads keep a single copy), multiplying the size of
  the relations by the thread count;
* :class:`MultiEventModel` checks the four axioms over the lifted
  relations (acyclicity and irreflexivity over per-thread copies are
  equivalent to the single-event checks — a cycle lives entirely inside
  one thread layer — so the verdicts agree with the single-event model
  by construction while the work grows with the number of copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core import axioms
from repro.core.architectures import power_architecture
from repro.core.axioms import AxiomViolation
from repro.core.bitrel import EventIndex, iter_bits
from repro.core.events import Event
from repro.core.execution import Execution
from repro.core.model import Architecture, CheckResult
from repro.core.relation import Relation
from repro.herd.optimal import surviving_candidates
from repro.litmus.ast import LitmusTest


@dataclass(frozen=True, order=True)
class PropagationCopy:
    """The copy of an event as seen by one thread (a ``prop(w, T)`` event)."""

    event: Event
    thread: int


def propagation_copies(execution: Execution) -> Dict[Event, List[PropagationCopy]]:
    """One propagation copy per (write, thread); reads keep a single copy."""
    threads = execution.threads if execution.threads else (0,)
    copies: Dict[Event, List[PropagationCopy]] = {}
    for event in execution.memory_events:
        if event.is_write():
            copies[event] = [PropagationCopy(event, thread) for thread in threads]
        else:
            copies[event] = [PropagationCopy(event, event.thread)]
    return copies


def lift_relation(
    relation: Relation,
    copies: Dict[Event, List[PropagationCopy]],
    index: Optional[EventIndex] = None,
) -> Relation:
    """Lift a relation over events to the per-thread propagation copies.

    Each pair ``(x, y)`` becomes ``(x_T, y_T)`` for every thread ``T``
    (events with a single copy contribute their copy to every layer), so
    a cycle exists in the lifted relation iff one exists in the original.

    When an :class:`EventIndex` over the copies is supplied, the lifted
    relation is packed over it — the model still pays for the enlarged
    event set (the point of the Tab. IX cost comparison), but its
    relational algebra runs on the same kernel as the single-event model.
    """
    pairs = []
    for source, target in relation:
        source_copies = copies.get(source, ())
        target_copies = copies.get(target, ())
        single = len(source_copies) == 1 or len(target_copies) == 1
        for source_copy in source_copies:  # pragma: no branch
            for target_copy in target_copies:
                if single or source_copy.thread == target_copy.thread:
                    pairs.append((source_copy, target_copy))
    if index is None:
        return Relation(pairs)
    return Relation.from_bits(index, index.bits_of_pairs(pairs))  # type: ignore[arg-type]


class MultiEventModel:
    """The four axioms checked over per-thread propagation copies."""

    def __init__(self, architecture: Optional[Architecture] = None):
        self.architecture = architecture if architecture is not None else power_architecture()
        #: (po's index, event set) -> (copies, copy index, lift table).
        #: Candidates of one family share both, so the per-thread copies
        #: and their interning table are built once per family, not per
        #: candidate (bounded by the number of distinct families a model
        #: instance sees).
        self._copy_cache: Dict[object, Tuple[dict, EventIndex, Optional[tuple]]] = {}

    @property
    def name(self) -> str:
        return f"multi-event({self.architecture.name})"

    def _copies_of(self, execution: Execution) -> Tuple[dict, EventIndex, Optional[tuple]]:
        # Key by po's interning table and the event set: candidates of
        # one combination share both, and the id-level lift tables only
        # apply to relations over that exact index.  (EventIndex has
        # identity semantics, and being in the key keeps it alive.)
        origin = execution.po._index
        key = (origin, execution.events)
        cached = self._copy_cache.get(key)
        if cached is None:
            copies = propagation_copies(execution)
            copy_index = EventIndex(
                (
                    copy
                    for event in sorted(copies)
                    for copy in copies[event]
                ),
                # Copies order as (event, thread) and each per-event list
                # ascends by thread, so this flattening is presorted.
                presorted=True,
            )
            # Id-level lift tables: when po's index covers the execution,
            # lifting works on integer ids alone — per original id,
            # whether it is single-copy, the mask of all its copies, and
            # its copy id per thread layer.
            lift_table = None
            if all(event in origin.ids for event in copies):
                single = [False] * origin.n
                all_copies = [0] * origin.n
                by_thread: List[Dict[int, int]] = [dict() for _ in range(origin.n)]
                for event, event_copies in copies.items():
                    i = origin.ids[event]
                    single[i] = len(event_copies) == 1
                    for copy in event_copies:
                        copy_id = copy_index.ids[copy]
                        all_copies[i] |= 1 << copy_id
                        by_thread[i][copy.thread] = copy_id
                lift_table = (origin, single, all_copies, by_thread)
            cached = (copies, copy_index, lift_table)
            if len(self._copy_cache) > 64:  # families come and go; stay bounded
                self._copy_cache.clear()
            self._copy_cache[key] = cached
        return cached

    @staticmethod
    def _lift(
        relation: Relation,
        copies: dict,
        copy_index: EventIndex,
        lift_table: Optional[tuple],
    ) -> Relation:
        """Lift through the id tables when possible, else via the events."""
        if lift_table is not None:
            origin, single, all_copies, by_thread = lift_table
            bits = relation._bits_in(origin)
            if bits is not None:
                n = origin.n
                width = copy_index.n
                lifted = 0
                for p in iter_bits(bits):
                    i, j = divmod(p, n)
                    source_layers = by_thread[i]
                    if single[i] or single[j]:
                        mask = all_copies[j]
                        for copy_id in source_layers.values():
                            lifted |= mask << copy_id * width
                    else:
                        target_layers = by_thread[j]
                        for thread, copy_id in source_layers.items():
                            target = target_layers.get(thread)
                            if target is not None:
                                lifted |= 1 << copy_id * width + target
                return Relation.from_bits(copy_index, lifted)
        return lift_relation(relation, copies, copy_index)

    def check(
        self,
        execution: Execution,
        stop_at_first: bool = False,
        assume_sc_per_location: bool = False,
    ) -> CheckResult:
        """Check the lifted axioms.

        ``assume_sc_per_location`` skips the lifted SC PER LOCATION
        cycle check: a cycle exists in the lifted relation iff one
        exists in the original, so for candidates the planned engine
        already proved uniproc-consistent the check cannot fail.
        """
        arch = self.architecture
        copies, copy_index, lift_table = self._copies_of(execution)
        violations: List[AxiomViolation] = []

        def lifted_cycle_check(label: str, relation: Relation) -> Optional[AxiomViolation]:
            lifted = self._lift(relation, copies, copy_index, lift_table)
            cycle = lifted.find_cycle()
            if cycle is None:
                return None
            return AxiomViolation(label, tuple(copy.event for copy in cycle))

        if not assume_sc_per_location:
            violation = lifted_cycle_check(
                axioms.AXIOM_SC_PER_LOCATION, execution.po_loc | execution.com
            )
            if violation is not None:
                violations.append(violation)
                if stop_at_first:
                    return CheckResult(False, tuple(violations))

        ppo = arch.ppo(execution)
        fences = arch.fences(execution)
        hb = arch.hb(execution, ppo, fences)

        violation = lifted_cycle_check(axioms.AXIOM_NO_THIN_AIR, hb)
        if violation is not None:
            violations.append(violation)
            if stop_at_first:
                return CheckResult(False, tuple(violations))

        prop = arch.prop(execution, ppo, fences, hb)

        # OBSERVATION: irreflexive(fre; prop; hb*), composed over the copies.
        lifted_fre = self._lift(execution.fre, copies, copy_index, lift_table)
        lifted_prop = self._lift(prop, copies, copy_index, lift_table)
        lifted_hb_star = self._lift(hb, copies, copy_index, lift_table).reflexive_transitive_closure(
            frozenset(copy_index.events)
        )
        composed = lifted_fre.seq(lifted_prop).seq(lifted_hb_star)
        source = composed.first_reflexive()
        if source is not None:
            violations.append(AxiomViolation(axioms.AXIOM_OBSERVATION, (source.event,)))
            if stop_at_first:
                return CheckResult(False, tuple(violations))

        violation = lifted_cycle_check(axioms.AXIOM_PROPAGATION, execution.co | prop)
        if violation is not None:
            violations.append(violation)

        return CheckResult(not violations, tuple(violations))

    def allows(self, execution: Execution) -> bool:
        return self.check(execution, stop_at_first=True).allowed

    def __repr__(self) -> str:
        return f"MultiEventModel({self.architecture.name})"


class MultiEventSimulator:
    """Litmus simulation through the multi-event model (Tab. IX's middle row)."""

    def __init__(self, architecture: Optional[Architecture] = None):
        self.model = MultiEventModel(architecture)

    @property
    def name(self) -> str:
        return self.model.name

    def verdict(self, test: LitmusTest) -> str:
        assert test.condition is not None, "litmus tests carry a final condition"
        # Uniproc-violating candidates are forbidden by the lifted
        # SC PER LOCATION check, so only the planned engine's survivors
        # can contribute an Allow verdict — and for those the lifted
        # uniproc check is a proven no-op.
        for candidate, outcome in surviving_candidates(test):
            result = self.model.check(
                candidate.execution,
                stop_at_first=True,
                assume_sc_per_location=True,
            )
            if not result.allowed:
                continue
            observed = dict(outcome)
            matches = all(
                observed.get(
                    f"{atom.thread}:{atom.name}" if atom.kind == "reg" else atom.name
                )
                == atom.value
                for atom in test.condition.atoms
            )
            if matches:
                return "Allow"
        return "Forbid"
