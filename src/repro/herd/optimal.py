"""The planned execution engine: optimal stateless exploration (GenMC-style).

The naive oracle in :mod:`repro.herd.enumerate` materializes the full
cross product (all rf maps × all per-location coherence orders) and
lets the model reject invalid candidates one by one.  Most rejections
are SC-PER-LOCATION (uniproc) violations.  This engine never
materializes that grid: following GenMC's optimal DPOR (Kokologiannakis
& Vafeiadis), it *constructs* each SC-PER-LOCATION-consistent execution
exactly once, extending an execution graph one event at a time and
consulting the model's per-location acyclicity via po-loc reachability
rows.

Two observations make the walk optimal in this setting (thread paths
fixed, read values fixed by the combination):

1. **The uniproc graph factorizes per location.**  Every edge of
   ``po-loc ∪ rf ∪ co ∪ fr`` connects two accesses of the same
   location, so the union graph is a disjoint union of per-location
   components and consistency decomposes into a *product* over
   locations of per-location (rf_ℓ, co_ℓ) choices.

2. **Per-location consistent pairs are in bijection with canonical
   linearizations.**  A pair (rf_ℓ, co_ℓ) satisfies SC PER LOCATION
   exactly when the sequence "co-first write, its readers ascending by
   event id, co-next write, its readers, …" extends po-loc (for the
   ``llh`` variant, po-loc minus its read-read pairs).  The walk
   therefore grows that sequence directly: at each step it may place a
   po-ready read into the *open* coherence segment (assigning its rf to
   the segment's write — a read placed after newer writes arrived is
   the revisit of GenMC's revisit sets, counted as such) or open a new
   segment with a po-ready write (fixing the next co edge).  Every
   completed sequence is a consistent execution; distinct sequences
   give distinct executions; every consistent execution is reached.

Executions-explored therefore equals consistent-executions by
construction — the differential suite asserts it against the naive
oracle.  The only wasted work is *blocked* walks (a read whose every
remaining rf source got buried by coherence), detected by per-read
source-availability counts the moment a segment closes and surfaced as
the ``engine.dead_ends`` counter; they abort in O(1) steps instead of
costing a subtree.

The candidates left out are *counted, not enumerated*: candidate totals
and the observable-outcome universe are products over per-read source
counts and per-location order counts, so full
:class:`~repro.herd.simulator.SimulationResult` summaries stay exactly
equal to the naive engine's.  Leaves satisfy SC PER LOCATION by
construction, so model checks run with ``assume_sc_per_location=True``
and only evaluate the remaining three axioms.

:func:`surviving_candidates` is also the shared front door for the
multi-event and operational simulators: a uniproc-violating candidate
is forbidden by every engine of the Tab. IX comparison (the lifted
sc-per-location check, and the machine's coWW/coWR/coRW/coRR premises,
reject exactly the same cycles — Thm. 7.1), so verdict queries never
need to visit the rest of the grid at all.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import telemetry as _telemetry
from repro.core.bitrel import iter_bits, rows, transpose
from repro.core.events import Event
from repro.core.execution import Execution
from repro.herd.enumerate import Candidate, CombinationContext, combination_contexts
from repro.litmus.ast import LitmusTest

Outcome = Tuple[Tuple[str, int], ...]

#: SC PER LOCATION variants the engine knows how to enforce.
_VARIANTS = ("standard", "llh")

#: One per-location solution: the rf source of each local read (aligned
#: with the location's reads in event order) and the coherence order.
LocationSolution = Tuple[Tuple[Event, ...], Tuple[Event, ...]]


class SurvivingLeaf:
    """One uniproc-consistent assignment; the candidate builds on demand."""

    __slots__ = ("context", "assignment", "orders", "outcome")

    def __init__(
        self,
        context: CombinationContext,
        assignment: Tuple[Tuple[Event, Event], ...],
        orders: Tuple[Tuple[Event, ...], ...],
        outcome: Optional[Outcome],
    ):
        self.context = context
        self.assignment = assignment
        self.orders = orders
        self.outcome = outcome

    def execution(self) -> Execution:
        return self.context.execution(
            self.context.rf_relation(self.assignment),
            self.context.co_relation(self.orders),
        )

    def candidate(self) -> Candidate:
        return Candidate(
            execution=self.execution(),
            final_registers=dict(self.context.final_registers),
        )


def outcome_satisfies(condition, outcome: Outcome) -> bool:
    """Does an outcome (projected final state) satisfy every atom of
    *condition*?"""
    observed = dict(outcome)
    for atom in condition.atoms:
        key = f"{atom.thread}:{atom.name}" if atom.kind == "reg" else atom.name
        if observed.get(key) != atom.value:
            return False
    return True


def sc_per_location_order(context: CombinationContext, variant: str) -> int:
    """The packed po-loc the given SC PER LOCATION variant constrains
    with (``llh`` lets read-read pairs leave po-loc)."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown SC PER LOCATION variant: {variant!r}")
    index = context.index
    po_loc = context.po.same_location()._bits
    if variant == "llh":
        po_loc &= ~index.pair_mask(index.reads_mask, index.reads_mask)
    return po_loc


class LocationWalk:
    """The canonical-linearization walk of one location.

    Enumerates every consistent (rf_ℓ, co_ℓ) pair exactly once by
    growing the canonical sequence described in the module docstring.
    Local universe: the location's non-init writes (ids ``0..W-1``) and
    reads (ids ``W..W+R-1``), both in ascending event order; the init
    write(s) are pre-placed as coherence segment 0.
    """

    __slots__ = (
        "location",
        "init",
        "writes",
        "reads",
        "read_positions",
        "sources",
        "source_sets",
        "preds",
        "steps",
        "revisits",
        "dead_ends",
    )

    def __init__(
        self,
        location: str,
        init: Tuple[Event, ...],
        writes: List[Event],
        reads: List[Event],
        read_positions: List[int],
        sources: List[Tuple[Event, ...]],
        preds: List[int],
    ):
        self.location = location
        self.init = init
        self.writes = writes
        self.reads = reads
        #: positions of the local reads inside ``context.reads``.
        self.read_positions = read_positions
        self.sources = sources
        self.source_sets = [frozenset(s) for s in sources]
        #: per local id, the bitmask of local events po-loc-before it.
        self.preds = preds
        self.steps = 0
        self.revisits = 0
        self.dead_ends = 0

    def solve(self) -> List[LocationSolution]:
        """Every consistent per-location assignment, constructed directly."""
        writes = self.writes
        reads = self.reads
        preds = self.preds
        sources = self.sources
        source_sets = self.source_sets
        num_writes = len(writes)
        num_reads = len(reads)
        full_mask = (1 << (num_writes + num_reads)) - 1
        solutions: List[LocationSolution] = []
        if not full_mask:
            # Only the init write: one trivial solution, zero choices.
            return [((), self.init)]

        rf: List[Optional[Event]] = [None] * num_reads
        order: List[Event] = list(self.init)
        #: still-reachable rf sources per unplaced read: unplaced writes
        #: plus the open segment's write (init starts open).
        avail = [len(s) for s in sources]
        #: coherence-segment ordinal at which each placed event landed
        #: (local ids; init writes are segment 0 implicitly).
        placed_at = [0] * (num_writes + num_reads)
        #: segment ordinal of each placed *write* event (rf sources).
        write_seg: Dict[Event, int] = {w: 0 for w in self.init}
        steps = 0
        revisits = 0
        dead_ends = 0

        def extend(placed: int, cur: Optional[Event], seg: int, watermark: int) -> None:
            nonlocal steps, revisits, dead_ends
            if placed == full_mask:
                solutions.append((tuple(rf), tuple(order)))  # type: ignore[arg-type]
                return
            children = 0
            # (a) a po-ready read joins the open segment (rf := cur).
            #     Ascending local id keeps the sequence canonical: each
            #     segment's readers appear in event order exactly once.
            if cur is not None:
                for j in range(watermark + 1, num_reads):
                    bit = 1 << (num_writes + j)
                    if placed & bit:
                        continue
                    if preds[num_writes + j] & ~placed:
                        continue
                    if cur not in source_sets[j]:
                        continue
                    steps += 1
                    children += 1
                    # Revisit: the read was already po-ready while an
                    # earlier source's segment was open, and reads from
                    # a write that arrived later instead.
                    ready = 0
                    for p in iter_bits(preds[num_writes + j]):
                        if placed_at[p] > ready:
                            ready = placed_at[p]
                    if any(
                        ready <= write_seg[s] < seg
                        for s in sources[j]
                        if s in write_seg
                    ):
                        revisits += 1
                    rf[j] = cur
                    placed_at[num_writes + j] = seg
                    extend(placed | bit, cur, seg, j)
                    rf[j] = None
            # (b) a po-ready write opens the next segment (fixing co).
            #     Closing the open segment buries it: any unplaced read
            #     whose last reachable source is the open write would be
            #     orphaned — prune all write children at once.
            if placed & ((1 << num_writes) - 1) != (1 << num_writes) - 1:
                doomed = cur is not None and any(
                    avail[j] == 1
                    and not placed >> (num_writes + j) & 1
                    and cur in source_sets[j]
                    for j in range(num_reads)
                )
                if not doomed:
                    closing = (
                        [
                            j
                            for j in range(num_reads)
                            if not placed >> (num_writes + j) & 1
                            and cur in source_sets[j]
                        ]
                        if cur is not None
                        else []
                    )
                    for j in closing:
                        avail[j] -= 1
                    for i in range(num_writes):
                        if placed >> i & 1 or preds[i] & ~placed:
                            continue
                        steps += 1
                        children += 1
                        write = writes[i]
                        order.append(write)
                        write_seg[write] = seg + 1
                        placed_at[i] = seg + 1
                        extend(placed | (1 << i), write, seg + 1, -1)
                        del write_seg[write]
                        order.pop()
                    for j in closing:
                        avail[j] += 1
            if not children:
                dead_ends += 1

        cur = self.init[-1] if self.init else None
        extend(0, cur, 0, -1)
        # ``extend`` refers to itself through its closure: drop that
        # cycle so the walk's state is freed now, by reference counting,
        # not later by a pause of the cyclic collector.
        del extend
        self.steps = steps
        self.revisits = revisits
        self.dead_ends = dead_ends
        return solutions


class OptimalPlan:
    """The plan of one combination of per-thread paths.

    A plan owns one :class:`CombinationContext`.  It answers the
    *summary* questions — the full candidate-grid size ``total`` and
    :meth:`all_outcomes` — combinatorially, so summaries stay
    byte-identical to the naive oracle's, and :meth:`leaves` yields
    exactly the consistent executions, composed as a product of
    per-location canonical walks.  The per-location solve runs once per
    plan and is reused by later walks (the plan, like the context, is
    model-independent).

    Verdict queries share more.  The plan remembers whether its outcome
    universe meets the target (:meth:`meets_target`) and the
    target-matching leaves its verdict walks have materialized so far,
    each with one :class:`~repro.core.execution.Execution`
    (:meth:`target_leaves`).  Every model's verdict then checks the
    same executions, whose rf/co-derived relations (``fr``, ``com``,
    ``rfe``, ``rdw``, ``detour``) are derived once.
    Full summaries stream :meth:`leaves` and keep none of this.
    """

    def __init__(
        self,
        context: CombinationContext,
        test: Optional[LitmusTest] = None,
        variant: str = "standard",
    ):
        if variant not in _VARIANTS:
            raise ValueError(f"unknown SC PER LOCATION variant: {variant!r}")
        self.context = context
        self.test = test
        self.variant = variant
        self.total = context.total_candidates
        #: consistent executions yielded by the last `leaves()` walk.
        self.explored = 0
        #: solve-time statistics (accumulated over every location):
        #: extension steps, reads re-assigned past an available source,
        #: blocked walks aborted by the availability check.
        self.extension_steps = 0
        self.revisits = 0
        self.dead_ends = 0
        self._solutions: Optional[List[List[LocationSolution]]] = None
        self._read_positions: Optional[List[List[int]]] = None
        #: the verdict walks' shared state: whether the outcome universe
        #: meets the target, the target-matching leaves kept so far as
        #: ``(position in the walk, outcome, execution)``, how many
        #: leaves the walks have passed, and whether one reached the end.
        self._meets_target: Optional[bool] = None
        self._target_leaves: List[Tuple[int, Outcome, Execution]] = []
        self._passed = 0
        self._walk_done = False

    # -- outcome universe ---------------------------------------------------------

    def _register_part(self) -> List[Tuple[str, int]]:
        """The register projection of the outcome (fixed per combination)."""
        condition = self.test.condition if self.test is not None else None
        if condition is None:
            return []
        registers = self.context.final_registers
        return [
            (f"{atom.thread}:{atom.name}", int(registers.get((atom.thread, atom.name), 0)))
            for atom in condition.atoms
            if atom.kind == "reg"
        ]

    def _project(
        self, register_part: List[Tuple[str, int]], memory: Dict[str, int]
    ) -> Outcome:
        """Project (registers, final memory) onto the condition — the
        single source of the engine's outcome shape, byte-identical to
        :meth:`repro.herd.enumerate.Candidate.outcome`."""
        condition = self.test.condition if self.test is not None else None
        if condition is None:
            return tuple(sorted(set(memory.items())))
        observed = register_part + [
            (atom.name, memory.get(atom.name, 0))
            for atom in condition.atoms
            if atom.kind == "mem"
        ]
        return tuple(sorted(set(observed)))

    def all_outcomes(self) -> Set[Outcome]:
        """Outcomes of *every* candidate of this combination (incl. the
        inconsistent ones the walk never builds).

        The final registers are fixed by the thread paths and the final
        memory of each location is the last write of its coherence
        order, so the outcome universe is a product over per-location
        final values — no enumeration needed.
        """
        if self.total == 0:
            return set()
        condition = self.test.condition if self.test is not None else None
        register_part = self._register_part()
        if condition is not None:
            referenced = sorted(
                {atom.name for atom in condition.atoms if atom.kind == "mem"}
            )
            if not referenced:
                return {self._project(register_part, {})}
        else:
            referenced = sorted(self.context.locations)

        finals = self.context.final_values()
        choices = [sorted(finals.get(location, {0})) for location in referenced]
        return {
            self._project(register_part, dict(zip(referenced, values)))
            for values in itertools.product(*choices)
        }

    def _leaf_outcome(
        self, register_part: List[Tuple[str, int]], orders: Sequence[Sequence[Event]]
    ) -> Outcome:
        """Outcome of one consistent execution."""
        condition = self.test.condition if self.test is not None else None
        if condition is not None and not any(
            atom.kind == "mem" for atom in condition.atoms
        ):
            return self._project(register_part, {})
        memory = {
            location: (order[-1].value if order[-1].value is not None else 0)
            for location, order in zip(self.context.locations, orders)
        }
        return self._project(register_part, memory)

    # -- the per-location solve ---------------------------------------------------

    def _walks(self) -> List[LocationWalk]:
        context = self.context
        ids = context.index.ids
        n = context.index.n
        preds_global = rows(transpose(sc_per_location_order(context, self.variant), n), n)
        # Per location, the positions of its reads in event order.
        read_positions: Dict[str, List[int]] = {
            location: [] for location in context.locations
        }
        for position, read in enumerate(context.reads):
            read_positions[read.location].append(position)
        walks: List[LocationWalk] = []
        for location, (init, writes) in zip(context.locations, context.location_writes):
            positions = read_positions[location]
            reads = [context.reads[position] for position in positions]
            local_ids = [ids[event] for event in writes + tuple(reads)]
            # po-loc only relates same-location events, so every
            # predecessor of a local event is itself local.
            preds = []
            for event_id in local_ids:
                row = preds_global[event_id]
                mask = 0
                if row:
                    for local, other in enumerate(local_ids):
                        if row >> other & 1:
                            mask |= 1 << local
                preds.append(mask)
            walks.append(
                LocationWalk(
                    location,
                    init,
                    list(writes),
                    reads,
                    positions,
                    [context.rf_sources[position] for position in positions],
                    preds,
                )
            )
        return walks

    def _solve(self) -> List[List[LocationSolution]]:
        if self._solutions is None:
            steps = revisits = dead_ends = 0
            solutions: List[List[LocationSolution]] = []
            positions: List[List[int]] = []
            for walk in self._walks():
                solutions.append(walk.solve())
                positions.append(walk.read_positions)
                steps += walk.steps
                revisits += walk.revisits
                dead_ends += walk.dead_ends
            self.extension_steps = steps
            self.revisits = revisits
            self.dead_ends = dead_ends
            self._solutions = solutions
            self._read_positions = positions
        return self._solutions

    # -- the walk -----------------------------------------------------------------

    def leaves(self, with_outcomes: bool = True) -> Iterator[SurvivingLeaf]:
        """Yield exactly the uniproc-consistent executions, one leaf each.

        Candidates materialize lazily: verdict-only queries read the
        (cheap) outcome first and only build the :class:`Execution` for
        leaves that can actually witness the target.  After the walk,
        ``explored`` holds the number of leaves yielded.
        """
        self.explored = 0
        context = self.context
        if context.reads and not context.feasible:
            return
        per_location = self._solve()
        read_positions = self._read_positions or []

        register_part = self._register_part() if with_outcomes else []
        condition = self.test.condition if self.test is not None else None
        constant_outcome: Optional[Outcome] = None
        if (
            with_outcomes
            and condition is not None
            and all(atom.kind == "reg" for atom in condition.atoms)
        ):
            # Register-only condition: the outcome is fixed by the thread
            # paths, identical for every rf/co child of this combination.
            constant_outcome = tuple(sorted(set(register_part)))

        reads = context.reads
        num_reads = len(reads)
        explored = 0
        try:
            for choice in itertools.product(*per_location):
                rf_of: List[Optional[Event]] = [None] * num_reads
                orders: List[Tuple[Event, ...]] = []
                for (rf_local, order), positions in zip(choice, read_positions):
                    orders.append(order)
                    for position, source in zip(positions, rf_local):
                        rf_of[position] = source
                assignment = tuple(
                    (rf_of[position], reads[position])
                    for position in range(num_reads)
                )
                if constant_outcome is not None:
                    outcome: Optional[Outcome] = constant_outcome
                elif with_outcomes:
                    outcome = self._leaf_outcome(register_part, orders)
                else:
                    outcome = None
                explored += 1
                yield SurvivingLeaf(context, assignment, tuple(orders), outcome)
        finally:
            # Publish even when the consumer breaks out early: closing
            # raises GeneratorExit through the yield above.
            self._publish(explored)

    def _publish(self, explored: int) -> None:
        """Record one walk that passed *explored* leaves.  The solve
        statistics are published per walk, cached solve or not, so the
        counters depend on the queries alone and sharded totals equal
        serial ones whatever each process had cached."""
        self.explored = explored
        registry = _telemetry._ACTIVE
        if registry is not None:
            registry.count("engine.walks")
            registry.count("engine.explored", explored)
            registry.count("engine.extension_steps", self.extension_steps)
            registry.count("engine.revisits", self.revisits)
            registry.count("engine.dead_ends", self.dead_ends)

    # -- the shared verdict walk --------------------------------------------------

    def meets_target(self) -> bool:
        """Can any outcome of this combination satisfy the test's
        condition?  Computed once; a verdict query never walks a plan
        whose outcome universe misses the target."""
        if self._meets_target is None:
            condition = self.test.condition
            self._meets_target = any(
                outcome_satisfies(condition, outcome) for outcome in self.all_outcomes()
            )
        return self._meets_target

    def target_leaves(self) -> Iterator[Tuple[Outcome, Execution]]:
        """The target-matching leaves in walk order, each as
        ``(outcome, execution)``, for a verdict query to check until the
        first allowed one.

        The leaves kept by earlier verdict walks come first, with the
        very executions earlier queries checked.  Past them, a fresh
        :meth:`leaves` walk (looked up on the instance) skips the leaves
        already passed and keeps each new match.  No generator is kept
        between calls.  Each call publishes the counters of exactly one
        :meth:`leaves` walk stopped where this one stops, as the
        unshared walk did.
        """
        condition = self.test.condition
        explored = 0
        walk = None
        try:
            for position, outcome, execution in self._target_leaves:
                explored = position + 1
                yield outcome, execution
            if self._walk_done:
                explored = self._passed
                return
            walk = self.leaves(True)
            for position, leaf in enumerate(walk):
                if position < self._passed:
                    continue
                matches = outcome_satisfies(condition, leaf.outcome)
                if matches:
                    self._target_leaves.append(
                        (position, leaf.outcome, leaf.execution())
                    )
                # Passed only once kept: a failed materialization leaves
                # the shared state as it was.
                self._passed = position + 1
                if matches:
                    yield leaf.outcome, self._target_leaves[-1][2]
            self._walk_done = True
        finally:
            if walk is not None:
                walk.close()  # the walk publishes its own counters
            else:
                self._publish(explored)

    def survivors(
        self, with_outcomes: bool = True
    ) -> Iterator[Tuple[Candidate, Optional[Outcome]]]:
        """The walk's ``(candidate, outcome)`` pairs (``outcome`` is None
        when ``with_outcomes`` is False)."""
        for leaf in self.leaves(with_outcomes=with_outcomes):
            yield leaf.candidate(), leaf.outcome


def plans(test: LitmusTest, variant: str = "standard") -> Iterator[OptimalPlan]:
    """One :class:`OptimalPlan` per combination of per-thread paths."""
    for context in combination_contexts(test):
        yield OptimalPlan(context, test, variant)


def combination_matches_target(combination, condition) -> bool:
    """Can this choice of per-thread paths witness the register atoms?

    The final registers are fixed by the thread paths alone, so register
    atoms filter whole combinations *before* the event universe is
    interned or any relation built: for a register-only ``exists``
    clause (the common litmus shape) only the combinations that match
    the target are ever constructed
    (:meth:`repro.campaign.context.SimulationContext.target_plans`).
    Memory atoms are left to the caller's outcome-universe check.
    """
    for atom in condition.atoms:
        if atom.kind != "reg":
            continue
        # Unknown threads/registers read as 0, exactly as in
        # Candidate.outcome's final_registers.get(..., 0) default.
        if atom.thread is None or not 0 <= atom.thread < len(combination):
            value: object = 0
        else:
            value = combination[atom.thread].final_registers.get(atom.name, 0)
        if int(value) != atom.value:
            return False
    return True


def surviving_candidates(
    test: LitmusTest, variant: str = "standard", with_outcomes: bool = True
) -> Iterator[Tuple[Candidate, Optional[Outcome]]]:
    """Every uniproc-consistent candidate of *test*, with its outcome.

    The candidates left out are exactly the ones the naive oracle
    generates and every model then rejects through SC PER LOCATION (for
    the given *variant*), so Allow/Forbid queries — under the axiomatic,
    multi-event or operational engines alike — lose nothing by
    iterating these only.
    """
    for plan in plans(test, variant):
        yield from plan.survivors(with_outcomes=with_outcomes)
