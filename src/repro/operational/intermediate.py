"""The intermediate machine of Sec. 7 (Fig. 30).

The machine reformulates the axiomatic model as a transition system.
Its labels are

* ``c(w)``  — commit write,
* ``cp(w)`` — write reaches coherence point,
* ``s(w,r)``— satisfy read (from the write ``w`` it reads),
* ``c(w,r)``— commit read,

and its state is ``(cw, cpw, sr, cr)``: the committed writes, the writes
having reached coherence point, the satisfied reads and the committed
reads.

Given a candidate execution (which fixes ``rf`` and ``co``), the machine
*accepts* the execution when some interleaving of all its labels fires
without ever blocking on a premise of Fig. 30.  Theorem 7.1 states that
acceptance coincides with validity in the axiomatic model; the
test-suite and ``benchmarks/bench_thm71_equivalence.py`` check this
empirically on the paper's tests and on generated families.

The machine also handles the coRR-strengthening discussed at the end of
Sec. 7.1: the commit-read rule records which write each read took its
value from, so that the coRR pattern is rejected exactly as in the
axiomatic model.

Two presentation details differ from the figure: the initial writes
start out committed and at their coherence point; and the
commit-write/satisfy-read rules additionally require the processing
order to linearise the propagation order — the figure obtains the same
effect for full fences through the interplay of its premises with the
per-thread propagation steps of the underlying storage subsystem,
which this abstraction does not model explicitly.

The set-valued state components are bitmasks over the execution's
interned event ids (:class:`~repro.core.bitrel.EventIndex`) and the
coherence-point component stays the figure's total order (a tuple of
ids): each premise of Fig. 30 is one AND against a precomputed
per-event row.  This is still — deliberately — the "operational" cost
model that Tab. IX compares against axiomatic simulation: an
explicit-state search over the interleavings, paying per state and per
coherence-point linearisation, not per axiom.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.architectures import power_architecture
from repro.core.bitrel import EventIndex, iter_bits, rows
from repro.core.execution import Execution
from repro.core.model import Architecture
from repro.core.relation import Relation
from repro.herd.enumerate import candidate_executions
from repro.herd.optimal import outcome_satisfies
from repro.litmus.ast import LitmusTest


class IntermediateMachine:
    """The intermediate machine, parameterised by an architecture."""

    def __init__(self, architecture: Optional[Architecture] = None):
        self.architecture = architecture if architecture is not None else power_architecture()

    @property
    def name(self) -> str:
        return f"intermediate({self.architecture.name})"

    # -- acceptance ----------------------------------------------------------------

    def accepts(self, execution: Execution) -> bool:
        """Is there an accepting interleaving of the execution's labels?"""
        index = execution.po._index
        if any(event not in index.ids for event in execution.events):
            index = EventIndex(execution.events)
        n = index.n

        def rows_of(relation: Relation) -> List[int]:
            bits = relation._bits_in(index)
            assert bits is not None, "execution relation escapes its event universe"
            return rows(bits, n)

        relations = self.architecture.relations(execution)
        hb_star = relations["hb"].reflexive_transitive_closure(
            execution.memory_events
        )
        fences = rows_of(relations["fences"])
        prop = rows_of(relations["prop"])
        ppo_fences = rows_of(relations["ppo"] | relations["fences"])
        po_loc = rows_of(execution.po_loc)
        co = rows_of(execution.co)
        # Inverse rows needed by the CPW and SR premises.
        co_pred = rows_of(execution.co.inverse())
        phs_pred = rows_of(relations["prop"].seq(hb_star).inverse())

        writes_mask = index.writes_mask
        reads_mask = index.reads_mask
        init_mask = index.init_mask & writes_mask
        program_write_ids = list(iter_bits(writes_mask & ~init_mask))
        read_ids = list(iter_bits(reads_mask))

        rf_source: Dict[int, int] = {}
        for write, read in execution.rf:
            rf_source[index.ids[read]] = index.ids[write]

        # CR premises that do not depend on the machine state:
        # visibility of each read's (fixed) rf source, and the coRR
        # conflict mask over other committed reads.
        visible_source = {
            read_id: self._visible_ids(
                index, po_loc, co, rf_source[read_id], read_id
            )
            for read_id in read_ids
            if read_id in rf_source
        }
        conflict = [0] * n
        for read_id in read_ids:
            source = rf_source.get(read_id)
            if source is None:
                continue
            mask = 0
            for other_id in read_ids:
                if other_id == read_id:
                    continue
                other_source = rf_source.get(other_id)
                if other_source is None:
                    continue
                if po_loc[other_id] >> read_id & 1 and co[source] >> other_source & 1:
                    mask |= 1 << other_id
                elif po_loc[read_id] >> other_id & 1 and co[other_source] >> source & 1:
                    mask |= 1 << other_id
            conflict[read_id] = mask

        init_ids = tuple(iter_bits(init_mask))
        initial = (init_mask, init_ids, 0, 0)
        final_cw = writes_mask
        final_cpw_len = writes_mask.bit_count()

        seen: Set[Tuple[int, Tuple[int, ...], int, int]] = set()
        stack: List[Tuple[int, Tuple[int, ...], int, int]] = [initial]

        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            cw, cpw, sr, cr = state
            if (
                cw == final_cw
                and len(cpw) == final_cpw_len
                and sr == reads_mask
                and cr == reads_mask
            ):
                return True
            cpw_mask = 0
            for w in cpw:
                cpw_mask |= 1 << w

            # COMMIT WRITE
            for w in program_write_ids:
                if cw >> w & 1:
                    continue
                if po_loc[w] & cw:
                    continue  # CW: SC PER LOCATION / coWW
                if prop[w] & (cw | sr):
                    continue  # CW: PROPAGATION (vs committed and satisfied)
                if fences[w] & sr:
                    continue  # CW: fences ∩ WR
                stack.append((cw | 1 << w, cpw, sr, cr))

            # WRITE REACHES COHERENCE POINT
            for w in program_write_ids:
                if cpw_mask >> w & 1 or not cw >> w & 1:
                    continue
                if po_loc[w] & cpw_mask:
                    continue  # CPW: po-loc and cpw in accord
                if prop[w] & cpw_mask:
                    continue  # CPW: PROPAGATION
                if co_pred[w] & ~cpw_mask:
                    continue  # CPW: all co-predecessors at their point
                stack.append((cw, cpw + (w,), sr, cr))

            # SATISFY READ
            for r in read_ids:
                if sr >> r & 1:
                    continue
                source = rf_source.get(r)
                if source is None:
                    continue
                local = po_loc[source] >> r & 1
                if not local and not cw >> source & 1:
                    continue  # SR: write is either local or committed
                if ppo_fences[r] & sr:
                    continue  # SR: PPO / ii0 ∩ RR
                if co[source] & phs_pred[r]:
                    continue  # SR: OBSERVATION
                if prop[r] & (sr | cw):
                    continue  # SR: PROPAGATION (strong cumulativity)
                stack.append((cw, cpw, sr | 1 << r, cr))

            # COMMIT READ
            for r in read_ids:
                if cr >> r & 1 or not sr >> r & 1:
                    continue
                if not visible_source.get(r, False):
                    continue  # CR: SC PER LOCATION / coWR, coRW, coRR
                if ppo_fences[r] & (cw | sr):
                    continue  # CR: PPO / cc0 ∩ RW and (ci0 ∪ cc0) ∩ RR
                if conflict[r] & cr:
                    continue  # coRR strengthening
                stack.append((cw, cpw, sr, cr | 1 << r))

        return False

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _visible_ids(
        index: EventIndex,
        po_loc: List[int],
        co: List[int],
        write: int,
        read: int,
    ) -> bool:
        """The visibility condition of the COMMIT READ rule (Sec. 7.1.2)."""
        location = index.events[read].location
        if index.events[write].location != location:
            return False
        same_location_writes = (
            index.location_masks.get(location, 0) & index.writes_mask
        )

        # wb: the last write to the location po-loc-before the read.
        before = [
            w for w in iter_bits(same_location_writes) if po_loc[w] >> read & 1
        ]
        wb = None
        for candidate in before:
            if all(
                other == candidate or po_loc[other] >> candidate & 1
                for other in before
            ):
                wb = candidate
        # wa: the first write to the location po-loc-after the read.
        after = [
            w for w in iter_bits(same_location_writes) if po_loc[read] >> w & 1
        ]
        wa = None
        for candidate in after:
            if all(
                other == candidate or po_loc[candidate] >> other & 1
                for other in after
            ):
                wa = candidate

        if wb is not None and write != wb and co[write] >> wb & 1:
            return False  # write is co-before the last local write before the read
        if wa is not None:
            if write == wa or co[wa] >> write & 1:
                return False  # write equal to or co-after the first local write after
        return True


class OperationalSimulator:
    """Litmus-test simulation through the intermediate machine.

    This is the "operational" engine of the Tab. IX comparison: it
    enumerates candidate executions exactly like herd, but decides each
    one by searching for an accepting machine interleaving instead of
    checking the axioms.  Unlike the axiomatic engines it does *not*
    ride the planned engine: the tool it stands in for has no
    axiomatic uniproc check to prune with — every candidate's
    interleavings are explored until the machine blocks (Thm. 7.1
    guarantees the blocked searches are exactly the candidates the
    axioms reject).
    """

    def __init__(self, architecture: Optional[Architecture] = None):
        self.machine = IntermediateMachine(architecture)

    @property
    def name(self) -> str:
        return f"operational({self.machine.architecture.name})"

    def allowed_outcomes(self, test: LitmusTest) -> FrozenSet:
        outcomes = set()
        for candidate in candidate_executions(test):
            if self.machine.accepts(candidate.execution):
                outcomes.add(candidate.outcome(test))
        return frozenset(outcomes)

    def verdict(self, test: LitmusTest) -> str:
        """Allow/Forbid verdict for the test's target outcome."""
        assert test.condition is not None, "litmus tests carry a final condition"
        for candidate in candidate_executions(test):
            if self.machine.accepts(candidate.execution) and outcome_satisfies(
                test.condition, candidate.outcome(test)
            ):
                return "Allow"
        return "Forbid"
