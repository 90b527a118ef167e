"""Enumeration of candidate executions (the data-flow semantics of Sec. 3).

Starting from the per-thread control-flow paths produced by the
instruction semantics, this module builds every candidate execution
``(E, po, rf, co)``:

1. pick one control/data path per thread (a choice of values returned by
   each load, which also resolves branches);
2. pick, for every read, a write to the same location carrying the same
   value (the read-from map ``rf``) — combinations for which some read
   has no possible source are discarded;
3. pick, for every location, a total order of the writes to that
   location starting with the initial write (the coherence order ``co``).

The constraint specification (the model) then decides which candidates
are valid; that part lives in :mod:`repro.herd.simulator`.

This module is the *reference oracle*: it materializes every candidate
by brute-force cross product.  The production engine lives in
:mod:`repro.herd.optimal`, which shares :class:`CombinationContext` (the
per-combination event universe interned into a
:class:`~repro.core.bitrel.EventIndex`, and the po/dependency/fence
relations packed once and shared across all rf×co children) but
constructs only the SC-PER-LOCATION-consistent rf/co assignments
instead of generating and rejecting.  The differential
suite (``tests/test_differential.py``) holds the two engines to
identical candidate sets and verdicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.bitrel import EventIndex
from repro.core.events import Event
from repro.core.execution import Execution
from repro.core.relation import Relation
from repro.litmus.ast import LitmusTest, RegisterValue
from repro.litmus.semantics import (
    ThreadExecution,
    enumerate_thread_paths,
    thread_init_registers,
    value_domain_of,
)

@dataclass(frozen=True)
class Candidate:
    """A candidate execution together with the final register state."""

    execution: Execution
    final_registers: Mapping[Tuple[int, str], RegisterValue]

    def final_memory(self) -> Dict[str, int]:
        return self.execution.final_memory_state()

    def outcome(self, test: LitmusTest) -> Tuple[Tuple[str, int], ...]:
        """The observable final state, projected on the test's condition.

        The projection mirrors what the litmus harness logs on hardware:
        the registers and locations mentioned in the final condition (or
        every memory location when the test has no condition).  The
        final-memory replay (a coherence-order walk) runs only when the
        condition actually mentions a memory location.
        """
        observed: List[Tuple[str, int]] = []
        if test.condition is not None:
            memory: Optional[Dict[str, int]] = None
            for atom in test.condition.atoms:
                if atom.kind == "reg":
                    value = self.final_registers.get((atom.thread, atom.name), 0)
                    observed.append((f"{atom.thread}:{atom.name}", int(value)))
                else:
                    if memory is None:
                        memory = self.final_memory()
                    observed.append((atom.name, memory.get(atom.name, 0)))
        else:
            observed.extend(sorted(self.final_memory().items()))
        return tuple(sorted(set(observed)))


def _thread_paths(test: LitmusTest, cache=None) -> List[Sequence[ThreadExecution]]:
    """Per thread of *test*, every path over the test's value domain.

    A thread's paths depend on its index, instructions, initial
    registers and the value domain alone.  With a *cache* (a
    :class:`~repro.util.caches.BoundedTTLCache` whose ``stats`` count
    the lookups), each distinct thread program is enumerated once and
    its paths, a tuple, are shared read-only by every test containing it.
    """
    domain = tuple(value_domain_of(test))
    paths: List[Sequence[ThreadExecution]] = []
    for index, instructions in enumerate(test.threads):
        init_registers = thread_init_registers(test, index)
        if cache is None:
            paths.append(
                enumerate_thread_paths(index, instructions, init_registers, domain)
            )
            continue
        key = (index, tuple(instructions), tuple(sorted(init_registers.items())), domain)
        found = cache.get(key)
        if found is None:
            cache.stats.miss()
            found = cache[key] = tuple(
                enumerate_thread_paths(index, instructions, init_registers, domain)
            )
        else:
            cache.stats.hit()
        paths.append(found)
    return paths


@dataclass
class CombinationContext:
    """Everything one choice of per-thread paths shares across rf×co children.

    The event universe is interned once into an :class:`EventIndex`; the
    program order, dependency and fence relations are packed over it
    once and reused by every candidate.  Every execution built
    here shares one :attr:`memo` (see :meth:`Execution.shared
    <repro.core.execution.Execution.shared>`), so model checks compute
    what depends on those fixed relations alone once per combination.
    """

    index: EventIndex
    all_events: Tuple[Event, ...]
    events_frozen: frozenset
    po: Relation
    addr: Relation
    data: Relation
    ctrl: Relation
    ctrl_cfence: Relation
    fences: Dict[str, Relation]
    final_registers: Dict[Tuple[int, str], RegisterValue]
    touched: frozenset
    writes: Tuple[Event, ...]
    reads: Tuple[Event, ...]
    #: per read, the candidate rf sources (same location, same value).
    rf_sources: Tuple[Tuple[Event, ...], ...]
    #: per (sorted) location, its initial write(s) and its other writes
    #: in event order: the coherence orders are ``init + permutation``.
    locations: Tuple[str, ...]
    location_writes: Tuple[Tuple[Tuple[Event, ...], Tuple[Event, ...]], ...]
    #: the :attr:`Execution.memo <repro.core.execution.Execution.memo>`
    #: of every execution built from this context.
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def feasible(self) -> bool:
        return all(self.rf_sources) or not self.reads

    @property
    def rf_count(self) -> int:
        count = 1
        for sources in self.rf_sources:
            count *= len(sources)
        return count

    @cached_property
    def co_orders(self) -> Tuple[Tuple[Tuple[Event, ...], ...], ...]:
        """Per location, every coherence order (init first).  Only the
        naive oracle enumerates these; the counts and the final values
        below follow from :attr:`location_writes` directly."""
        return tuple(
            tuple(init + order for order in itertools.permutations(rest))
            for init, rest in self.location_writes
        )

    @property
    def co_count(self) -> int:
        count = 1
        for _, rest in self.location_writes:
            count *= math.factorial(len(rest))
        return count

    def final_values(self) -> Dict[str, Set[int]]:
        """Per location, the values its co-last write may leave in memory:
        any non-initial write can come last, the initial write only when
        it is alone."""
        return {
            location: {
                write.value if write.value is not None else 0
                for write in (rest or init[-1:])
            }
            for location, (init, rest) in zip(self.locations, self.location_writes)
        }

    @property
    def total_candidates(self) -> int:
        if self.reads and not self.feasible:
            return 0
        return self.rf_count * self.co_count

    def rf_relation(self, assignment: Sequence[Tuple[Event, Event]]) -> Relation:
        """Packed rf relation from ``(write, read)`` pairs."""
        index = self.index
        ids = index.ids
        n = index.n
        bits = 0
        for write, read in assignment:
            bits |= 1 << ids[write] * n + ids[read]
        return Relation.from_bits(index, bits)

    def co_relation(self, orders: Sequence[Sequence[Event]]) -> Relation:
        """Packed co relation from one total order per location."""
        index = self.index
        ids = index.ids
        n = index.n
        bits = 0
        for order in orders:
            later = 0
            for event in reversed(order):
                i = ids[event]
                bits |= later << i * n
                later |= 1 << i
        return Relation.from_bits(index, bits)

    def execution(self, rf: Relation, co: Relation) -> Execution:
        return Execution(
            events=self.events_frozen,
            po=self.po,
            rf=rf,
            co=co,
            addr=self.addr,
            data=self.data,
            ctrl=self.ctrl,
            ctrl_cfence=self.ctrl_cfence,
            fences_by_name=self.fences,
            memo=self.memo,
        )

    def candidate(self, rf: Relation, co: Relation) -> Candidate:
        return Candidate(
            execution=self.execution(rf, co),
            final_registers=dict(self.final_registers),
        )


def combination_context(
    combination: Sequence[ThreadExecution],
    locations: Iterable[str] = (),
    initial_values: Optional[Mapping[str, int]] = None,
) -> CombinationContext:
    """Intern one choice of per-thread paths and build its shared relations."""
    events: List[Event] = []
    addr_pairs: List[Tuple[Event, Event]] = []
    data_pairs: List[Tuple[Event, Event]] = []
    ctrl_pairs: List[Tuple[Event, Event]] = []
    ctrl_cfence_pairs: List[Tuple[Event, Event]] = []
    fence_pairs: Dict[str, List[Tuple[Event, Event]]] = {}
    final_registers: Dict[Tuple[int, str], RegisterValue] = {}

    for path in combination:
        events.extend(path.memory_events)
        addr_pairs.extend(path.addr)
        data_pairs.extend(path.data)
        ctrl_pairs.extend(path.ctrl)
        ctrl_cfence_pairs.extend(path.ctrl_cfence)
        for name, pairs in path.fences.items():
            fence_pairs.setdefault(name, []).extend(pairs)
        for register, value in path.final_registers.items():
            final_registers[(path.thread, register)] = value

    touched = frozenset(locations) | {
        e.location for e in events if e.location is not None
    }
    init_writes = Execution.initial_writes(touched, initial_values)
    all_events = tuple(init_writes + events)
    # Already sorted: init writes (thread -1) come location-ordered, then
    # each thread's memory events in program order — i.e. (thread, poi).
    index = EventIndex(all_events, presorted=True)

    ids = index.ids
    n = index.n
    po_bits = 0
    for path in combination:
        later = 0
        for event in reversed(path.memory_events):
            i = ids[event]
            po_bits |= later << i * n
            later |= 1 << i

    def interned(pairs: Sequence[Tuple[Event, Event]]) -> Relation:
        bits = index.bits_of_pairs(pairs)
        assert bits is not None
        return Relation.from_bits(index, bits)

    writes = tuple(e for e in all_events if e.is_write())
    reads = tuple(e for e in all_events if e.is_read())

    # One pass over the writes, in event order: the rf sources of each
    # (location, value) and each location's (init, other writes).
    sorted_locations = tuple(sorted(touched))
    buckets: Dict[str, Tuple[List[Event], List[Event]]] = {
        location: ([], []) for location in sorted_locations
    }
    sources_of: Dict[Tuple[str, object], List[Event]] = {}
    for write in writes:
        location = write.location
        sources_of.setdefault((location, write.value), []).append(write)
        init, rest = buckets[location]
        (init if write.is_init() else rest).append(write)
    rf_sources = tuple(
        tuple(sources_of.get((read.location, read.value), ())) for read in reads
    )

    return CombinationContext(
        index=index,
        all_events=all_events,
        events_frozen=frozenset(all_events),
        po=Relation.from_bits(index, po_bits),
        addr=interned(addr_pairs),
        data=interned(data_pairs),
        ctrl=interned(ctrl_pairs),
        ctrl_cfence=interned(ctrl_cfence_pairs),
        fences={name: interned(pairs) for name, pairs in fence_pairs.items()},
        final_registers=final_registers,
        touched=touched,
        writes=writes,
        reads=reads,
        rf_sources=rf_sources,
        locations=sorted_locations,
        location_writes=tuple(
            (tuple(init), tuple(rest)) for init, rest in buckets.values()
        ),
    )


def combination_contexts(test: LitmusTest) -> Iterator[CombinationContext]:
    """One :class:`CombinationContext` per choice of per-thread paths."""
    all_paths = _thread_paths(test)
    locations = set(test.locations())
    for combination in itertools.product(*all_paths):
        yield combination_context(combination, locations, test.init_memory)


def _read_from_choices(
    context: CombinationContext,
) -> Iterator[Tuple[Tuple[Event, Event], ...]]:
    """All read-from maps: one same-location same-value write per read."""
    if context.reads and not context.feasible:
        return  # this combination of thread paths is infeasible
    per_read = [
        [(write, read) for write in sources]
        for read, sources in zip(context.reads, context.rf_sources)
    ]
    yield from itertools.product(*per_read)


def _coherence_choices(context: CombinationContext) -> Iterator[Relation]:
    """All coherence orders: per location, a total order with init first."""
    for combination in itertools.product(*context.co_orders):
        yield context.co_relation(combination)


def candidates_of_combination(
    combination: Sequence[ThreadExecution],
    locations: Iterable[str] = (),
    initial_values: Optional[Mapping[str, int]] = None,
) -> Iterator[Candidate]:
    """Yield the candidate executions of one choice of per-thread paths.

    This is the data-flow half of the enumeration: given the control-flow
    paths (one :class:`~repro.litmus.semantics.ThreadExecution` per
    thread), enumerate every read-from map and coherence order.  It is
    shared between the litmus front-end (:func:`candidate_executions`)
    and the verification front-end (:mod:`repro.verification.bmc`).
    """
    context = combination_context(combination, locations, initial_values)
    yield from candidates_of_context(context)


def candidates_of_context(context: CombinationContext) -> Iterator[Candidate]:
    """Brute-force cross product over one combination's rf and co choices."""
    for rf_pairs in _read_from_choices(context):
        rf = context.rf_relation(rf_pairs)
        for co in _coherence_choices(context):
            yield context.candidate(rf, co)


def candidate_executions(test: LitmusTest) -> Iterator[Candidate]:
    """Yield every candidate execution of *test* (naive reference oracle)."""
    for context in combination_contexts(test):
        yield from candidates_of_context(context)


def count_candidates(test: LitmusTest) -> int:
    """Number of candidate executions of a test (used by benchmarks)."""
    return sum(
        context.total_candidates for context in combination_contexts(test)
    )
