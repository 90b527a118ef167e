"""Seeded coherence write-burst tests and their expected summaries.

Every generated test follows one shape, which is what makes its full
summary under Power computable without the simulator:

* stores and loads only: no fences, no dependencies;
* one or two locations, ``x`` (the burst) and optionally ``y``;
* a thread never reads a location it writes, and in every thread all
  stores come before all loads;
* the stores to one location carry distinct values.

With no fences, Power's ``prop`` is empty and ``hb`` has no read-to-write
edge, so OBSERVATION, PROPAGATION and NO THIN AIR all hold and the
allowed executions are exactly the SC PER LOCATION ones.  Those split per
location: the coherence order is an interleaving of the writer threads'
bursts (each keeps program order), and each reader's reads of the
location must see coherence-ordered, non-decreasing writes.
:func:`expected_summary` counts and lists exactly that, per location, and
never builds an execution, so it shares no code with the engines it
checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.litmus.ast import LitmusTest, TestBuilder

Outcome = Tuple[Tuple[str, int], ...]

#: The cells of the workload: (threads, split of the x burst over its
#: writer threads, stores to y, reads of x, reads of y).  Every cell is
#: drawn ``per_cell`` times per seed; the seed picks thread roles, which
#: writer gets the low values, instruction order and the target, none of
#: which changes the amount of work, so the workload's cost does not
#: depend on the seed.  Writer ``i`` always stores ``split[i]`` values,
#: and reads go round-robin over the threads that may read a location.
CELLS: Tuple[Tuple[int, Tuple[int, ...], int, int, int], ...] = tuple(
    cell
    for burst in (3, 4, 5, 6)
    for cell in (
        (2, (burst,), 0, 2, 0),
        (2, (burst,), 2, 1, 1),
        (3, (burst,), 0, 2, 0),
        (3, (burst - burst // 2, burst // 2), 2, 1, 1),
    )
)

#: Cells small enough for the smoke mode (bursts of at most 4 stores).
SMOKE_CELLS = tuple(cell for cell in CELLS if sum(cell[1]) <= 4)


@dataclass(frozen=True)
class Expected:
    """The full Power summary a burst test must produce."""

    num_candidates: int
    num_allowed: int
    allowed_outcomes: FrozenSet[Outcome]
    all_outcomes: FrozenSet[Outcome]
    target_reachable: bool

    def matches(self, result) -> bool:
        """Does a :class:`repro.SimulationResult` carry this summary?"""
        return (
            result.num_candidates == self.num_candidates
            and result.num_allowed == self.num_allowed
            and result.allowed_outcomes == self.allowed_outcomes
            and result.all_outcomes == self.all_outcomes
            and result.target_reachable == self.target_reachable
            and result.condition_holds == self.target_reachable
        )


def _interleavings(bursts: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Every merge of the bursts that keeps each burst's own order."""
    merged: List[Tuple[int, ...]] = []
    total = sum(len(burst) for burst in bursts)

    def extend(taken: List[int], prefix: List[int]) -> None:
        if len(prefix) == total:
            merged.append(tuple(prefix))
            return
        for index, burst in enumerate(bursts):
            if taken[index] < len(burst):
                prefix.append(burst[taken[index]])
                taken[index] += 1
                extend(taken, prefix)
                taken[index] -= 1
                prefix.pop()

    extend([0] * len(bursts), [])
    return merged


def expected_summary(
    writers: Dict[str, List[Tuple[int, List[int]]]],
    readers: Dict[str, List[Tuple[int, str]]],
) -> Tuple[int, int, FrozenSet[Outcome], FrozenSet[Outcome]]:
    """The Power summary of a burst test, location by location: candidate
    count, allowed count, allowed outcomes and all outcomes.

    ``writers[loc]`` lists ``(thread, values stored in program order)``;
    ``readers[loc]`` lists ``(thread, register)`` in program order.
    """
    num_candidates = 1
    num_allowed = 1
    allowed_parts = []
    all_parts = []
    for location, bursts in sorted(writers.items()):
        stores = sum(len(values) for _, values in bursts)
        reads = readers.get(location, [])
        per_thread: Dict[int, List[str]] = {}
        for thread, register in reads:
            per_thread.setdefault(thread, []).append(register)
        keys = [
            f"{thread}:{register}"
            for thread, registers in sorted(per_thread.items())
            for register in registers
        ]
        # The grid: every permutation of the stores, every source per read.
        num_candidates *= math.factorial(stores) * (stores + 1) ** len(keys)
        orders = _interleavings([values for _, values in bursts])
        for registers in per_thread.values():
            num_allowed *= math.comb(stores + len(registers), len(registers))
        num_allowed *= len(orders)
        seen = set()
        for order in orders:
            sequence = (0,) + order
            choices = [
                [
                    tuple(sequence[i] for i in positions)
                    for positions in itertools.combinations_with_replacement(
                        range(stores + 1), len(registers)
                    )
                ]
                for _, registers in sorted(per_thread.items())
            ]
            for combo in itertools.product(*choices):
                seen.add(tuple(value for part in combo for value in part))
        allowed_parts.append([tuple(zip(keys, values)) for values in seen])
        all_parts.append(
            [
                tuple(zip(keys, values))
                for values in itertools.product(range(stores + 1), repeat=len(keys))
            ]
        )

    def flatten(parts) -> FrozenSet[Outcome]:
        return frozenset(
            tuple(sorted(pair for part in choice for pair in part))
            for choice in itertools.product(*parts)
        )

    return num_candidates, num_allowed, flatten(allowed_parts), flatten(all_parts)


def burst_test(rng, name: str, cell) -> Tuple[LitmusTest, Expected]:
    """Build one test of *cell* with layout choices drawn from *rng*."""
    threads, split, y_stores, x_reads, y_reads = cell
    roles = rng.sample(range(threads), threads)
    parts, next_value = [None] * len(split), 1
    for writer in rng.sample(range(len(split)), len(split)):
        parts[writer] = list(range(next_value, next_value + split[writer]))
        next_value += split[writer]
    writers = {"x": list(zip(roles[: len(split)], parts))}
    if y_stores:
        y_writer = roles[-1] if len(split) < threads else roles[0]
        writers["y"] = [(y_writer, list(range(1, y_stores + 1)))]
    planned_reads = []
    for location, count in (("x", x_reads), ("y", y_reads)):
        if count:
            writing = {thread for thread, _ in writers[location]}
            candidates = [t for t in roles if t not in writing]
            planned_reads += [
                (candidates[read % len(candidates)], location) for read in range(count)
            ]
    rng.shuffle(planned_reads)

    builder = TestBuilder(name, arch="power", doc="coherence write burst")
    readers: Dict[str, List[Tuple[int, str]]] = {}
    for thread in range(threads):
        thread_builder = builder.thread()
        written = [loc for loc in writers if any(t == thread for t, _ in writers[loc])]
        rng.shuffle(written)
        for location in written:
            for writer, stored in writers[location]:
                if writer == thread:
                    for value in stored:
                        thread_builder.store(location, value)
        for reader, location in planned_reads:
            if reader == thread:
                register = thread_builder.load(location)
                readers.setdefault(location, []).append((thread, register))

    # Pick the target from the allowed or (when one exists) the forbidden
    # outcomes, so the workload mixes Allow and Forbid tests.
    candidates, allowed_count, allowed, everything = expected_summary(writers, readers)
    forbidden = sorted(everything - allowed)
    target = rng.choice(forbidden if forbidden and rng.random() < 0.5 else sorted(allowed))
    builder.exists(
        {(int(key.split(":")[0]), key.split(":")[1]): value for key, value in target}
    )
    expected = Expected(candidates, allowed_count, allowed, everything, target in allowed)
    return builder.build(), expected


def burst_workload(rng, per_cell: int, cells=CELLS) -> List[Tuple[LitmusTest, Expected]]:
    """``per_cell`` tests of every cell, in seeded order."""
    drawn = [
        burst_test(rng, f"burst{index:03d}", cell)
        for index, cell in enumerate(
            cell for cell in cells for _ in range(per_cell)
        )
    ]
    rng.shuffle(drawn)
    return drawn
