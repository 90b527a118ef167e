"""Candidate executions ``(E, po, rf, co)`` and their derived relations.

An :class:`Execution` packages:

* the set of memory events (including the fictitious initial writes on
  thread ``-1``);
* the program order ``po`` (total per thread over memory events);
* the read-from map ``rf`` and the coherence order ``co``;
* the dependency relations ``addr``, ``data``, ``ctrl``, ``ctrl+cfence``
  produced by the instruction semantics (Sec. 5.2);
* per-fence relations (``sync``, ``lwsync``, ``dmb``...): the pairs of
  memory events in program order separated by a fence of that name.

From these it derives everything the axioms and the architecture
functions use: ``fr``, ``com``, ``po-loc``, internal/external variants,
``rdw``, ``detour`` and the direction-restricted views (WR, WW, RR, RW).

The executions of one combination of thread paths (one
:class:`~repro.herd.enumerate.CombinationContext`) differ only in ``rf``
and ``co``; they share one :attr:`Execution.memo`, so whatever depends
on the other fields alone (the event sets, ``po-loc``, ``dp``, the
fence relations, the static part of a ppo) is computed once per
combination rather than once per candidate (see :meth:`Execution.shared`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, TypeVar,
)

from repro.core.events import Event, MemoryWrite
from repro.core.relation import Relation


T = TypeVar("T")


def _shared_property(function: Callable[["Execution"], T]) -> cached_property:
    """A ``cached_property`` computed once per memo, through
    :meth:`Execution.shared`: *function* may not read rf or co."""
    shared = cached_property(lambda execution: execution.shared(function))
    shared.__doc__ = function.__doc__
    return shared


class ExecutionError(ValueError):
    """Raised when an execution is structurally ill-formed."""


@dataclass(frozen=True)
class Execution:
    """A candidate execution of a multi-threaded program."""

    events: FrozenSet[Event]
    po: Relation
    rf: Relation
    co: Relation
    addr: Relation = field(default_factory=Relation)
    data: Relation = field(default_factory=Relation)
    ctrl: Relation = field(default_factory=Relation)
    ctrl_cfence: Relation = field(default_factory=Relation)
    fences_by_name: Mapping[str, Relation] = field(default_factory=dict)
    # `rmw` pairs a load-reserve/store-conditional couple; unused by the
    # base models but exposed for extensions.
    rmw: Relation = field(default_factory=Relation)
    #: The cache every execution of one combination shares (see
    #: :meth:`shared`); never compared, never pickled.
    #: ``dataclasses.replace`` copies it, so a replace that changes po, a
    #: dependency or a fence relation must pass ``memo={}``.
    memo: Dict = field(default_factory=dict, compare=False, repr=False)

    def __getstate__(self) -> dict:
        # Memo keys are functions, some of them lambdas, and every entry
        # is recomputable: never ship the memo across a process boundary.
        state = dict(self.__dict__)
        state["memo"] = {}
        return state

    def shared(self, function: Callable[["Execution"], T]) -> T:
        """``function(self)``, computed once per memo and keyed by *function*.

        *function* must read only the fields every execution of the
        combination has in common (events, po, dependencies, fences),
        never ``rf`` or ``co``: its result is reused by every leaf.
        """
        memo = self.memo
        try:
            return memo[function]
        except KeyError:
            value = memo[function] = function(self)
            return value

    # -- construction helpers ----------------------------------------------------

    @staticmethod
    def initial_writes(
        locations: Iterable[str],
        initial_values: Optional[Mapping[str, int]] = None,
    ) -> List[Event]:
        """The fictitious initial writes for the given locations.

        Initial values default to 0 (the litmus convention); verification
        programs may override them per location.
        """
        values = dict(initial_values or {})
        return [
            Event(
                thread=-1,
                poi=index,
                eid=f"init_{loc}",
                action=MemoryWrite(loc, values.get(loc, 0)),
            )
            for index, loc in enumerate(sorted(set(locations)))
        ]

    def validate(self) -> None:
        """Check structural well-formedness; raise ExecutionError otherwise.

        * rf maps each read to exactly one write to the same location with
          the same value;
        * co is a strict total order per location over the writes to that
          location (including the initial write);
        * po is a strict order that only relates events of the same thread.
        """
        reads = self.reads
        writes = self.writes

        sources: Dict[Event, Event] = {}
        for write, read in self.rf:
            if not write.is_write() or not read.is_read():
                raise ExecutionError(f"rf pair is not write->read: {write} -> {read}")
            if write.location != read.location:
                raise ExecutionError(f"rf pair mixes locations: {write} -> {read}")
            if write.value != read.value:
                raise ExecutionError(f"rf pair mixes values: {write} -> {read}")
            if read in sources:
                raise ExecutionError(f"read {read} has two rf sources")
            sources[read] = write
        for read in reads:
            if read not in sources:
                raise ExecutionError(f"read {read} has no rf source")

        for src, dst in self.co:
            if not src.is_write() or not dst.is_write():
                raise ExecutionError(f"co pair is not write->write: {src} -> {dst}")
            if src.location != dst.location:
                raise ExecutionError(f"co pair mixes locations: {src} -> {dst}")
        for location in self.locations:
            per_loc = [w for w in writes if w.location == location]
            co_loc = self.co.filter(lambda s, t: s.location == location)
            if not co_loc.is_total_over(per_loc):
                raise ExecutionError(f"co is not total over writes to {location}")

        for src, dst in self.po:
            if src.thread != dst.thread:
                raise ExecutionError(f"po relates distinct threads: {src} -> {dst}")
        if not self.po.is_acyclic():
            raise ExecutionError("po has a cycle")

    # -- event sets --------------------------------------------------------------

    @_shared_property
    def memory_events(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.events if e.is_memory_access())

    @_shared_property
    def reads(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.events if e.is_read())

    @_shared_property
    def writes(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.events if e.is_write())

    @cached_property
    def init_writes(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.writes if e.is_init())

    @cached_property
    def locations(self) -> FrozenSet[str]:
        return frozenset(
            e.location for e in self.memory_events if e.location is not None
        )

    @cached_property
    def threads(self) -> Tuple[int, ...]:
        return tuple(sorted({e.thread for e in self.events if not e.is_init()}))

    def events_of_thread(self, thread: int) -> List[Event]:
        return sorted(e for e in self.events if e.thread == thread)

    # -- fundamental derived relations -------------------------------------------

    @_shared_property
    def po_loc(self) -> Relation:
        """Program order restricted to pairs accessing the same location."""
        return self.po.same_location()

    @cached_property
    def fr(self) -> Relation:
        """From-read: read r -> write w1 when r reads from w0 co-before w1.

        Computed as ``rf⁻¹; co``, on the packed kernel (see
        :mod:`repro.core.bitrel`).
        """
        return self.rf.inverse().seq(self.co)

    @cached_property
    def com(self) -> Relation:
        """Communications: co ∪ rf ∪ fr."""
        return self.co | self.rf | self.fr

    # internal / external splits

    @cached_property
    def rfe(self) -> Relation:
        return self.rf.external()

    @cached_property
    def rfi(self) -> Relation:
        return self.rf.internal()

    @cached_property
    def coe(self) -> Relation:
        return self.co.external()

    @cached_property
    def coi(self) -> Relation:
        return self.co.internal()

    @cached_property
    def fre(self) -> Relation:
        return self.fr.external()

    @cached_property
    def fri(self) -> Relation:
        return self.fr.internal()

    # ppo building blocks (Fig. 25 / Fig. 27-28)

    @cached_property
    def rdw(self) -> Relation:
        """Read-different-writes: po-loc ∩ (fre; rfe).

        ``fre; rfe`` relates reads to reads, so only the read-read pairs
        of po-loc can be in rdw; without any it is empty.
        """
        if not self._po_loc_rr:
            return self._po_loc_rr
        return self._po_loc_rr & self.fre.seq(self.rfe)

    @cached_property
    def detour(self) -> Relation:
        """Detour: po-loc ∩ (coe; rfe), which only po-loc's write-read
        pairs can be in."""
        if not self._po_loc_wr:
            return self._po_loc_wr
        return self._po_loc_wr & self.coe.seq(self.rfe)

    @_shared_property
    def _po_loc_rr(self) -> Relation:
        return self.restrict_rr(self.po_loc)

    @_shared_property
    def _po_loc_wr(self) -> Relation:
        return self.restrict_wr(self.po_loc)

    @_shared_property
    def dp(self) -> Relation:
        """Dependencies dp = addr ∪ data."""
        return self.addr | self.data

    # -- direction restrictions ---------------------------------------------------

    def restrict_ww(self, relation: Relation) -> Relation:
        return relation.restrict(self.writes, self.writes)

    def restrict_wr(self, relation: Relation) -> Relation:
        return relation.restrict(self.writes, self.reads)

    def restrict_rr(self, relation: Relation) -> Relation:
        return relation.restrict(self.reads, self.reads)

    def restrict_rw(self, relation: Relation) -> Relation:
        return relation.restrict(self.reads, self.writes)

    def restrict_rm(self, relation: Relation) -> Relation:
        return relation.restrict(self.reads, self.memory_events)

    def restrict_wm(self, relation: Relation) -> Relation:
        return relation.restrict(self.writes, self.memory_events)

    def restrict_mw(self, relation: Relation) -> Relation:
        return relation.restrict(self.memory_events, self.writes)

    def restrict_mr(self, relation: Relation) -> Relation:
        return relation.restrict(self.memory_events, self.reads)

    # -- fences --------------------------------------------------------------------

    def fence(self, *names: str) -> Relation:
        """Union of the named per-fence relations (missing names are empty)."""
        empty = result = Relation.empty()
        for name in names:
            result = result | self.fences_by_name.get(name, empty)
        return result

    @property
    def fence_names(self) -> FrozenSet[str]:
        return frozenset(self.fences_by_name)

    # -- convenience ---------------------------------------------------------------

    def final_memory_state(self) -> Dict[str, int]:
        """Location -> value of the co-maximal write (the final state)."""
        result: Dict[str, int] = {}
        co_closure = self.co.transitive_closure()
        for location in self.locations:
            per_loc = [w for w in self.writes if w.location == location]
            maximal = [
                w for w in per_loc
                if not any((w, other) in co_closure for other in per_loc if other != w)
            ]
            if len(maximal) != 1:
                raise ExecutionError(f"no unique co-maximal write for {location}")
            value = maximal[0].value
            result[location] = value if value is not None else 0
        return result

    def read_values(self) -> Dict[Event, int]:
        """Read event -> value it observed."""
        return {r: r.value for r in self.reads if r.value is not None}

    def describe(self) -> str:
        """Human-readable multi-line description (used by examples and docs)."""
        lines = ["Execution:"]
        for thread in self.threads:
            lines.append(f"  T{thread}:")
            for event in self.events_of_thread(thread):
                lines.append(f"    {event.eid}: {event.action}")
        for name, rel in (
            ("rf", self.rf),
            ("co", self.co),
            ("fr", self.fr),
        ):
            shown = ", ".join(f"{s.eid}->{t.eid}" for s, t in rel.to_sorted_list())
            lines.append(f"  {name}: {shown if shown else '(empty)'}")
        return "\n".join(lines)
