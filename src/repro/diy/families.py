"""Systematic families of generated litmus tests.

These families back the large-scale experiments:

* the hardware-testing campaign of Tab. V (thousands of tests per
  architecture in the paper; the family size here is a parameter);
* the simulation-speed comparison of Tab. IX;
* the verification comparisons of Tab. X/XI.

A family is produced by enumerating critical cycles over a per-thread
mechanism vocabulary (plain po, fences, dependencies) and the external
communication edges, then generating one litmus test per cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.diy.cycles import Cycle, Edge, coe, dep, fenced, fre, po, rfe
from repro.diy.generator import generate_test
from repro.litmus.ast import LitmusTest
from repro.report import JsonReportMixin

#: Per-architecture fence vocabulary used for Fenced program-order edges.
FENCES_BY_ARCH: Dict[str, Tuple[str, ...]] = {
    "power": ("sync", "lwsync"),
    "arm": ("dmb",),
    "x86": ("mfence",),
}

#: Per-architecture dependency vocabulary.
DEPS_BY_ARCH: Dict[str, Tuple[str, ...]] = {
    "power": ("addr", "data", "ctrl", "ctrlisync"),
    "arm": ("addr", "data", "ctrl", "ctrlisb"),
    "x86": (),
}

_COMMUNICATIONS = {"Rfe": rfe, "Fre": fre, "Coe": coe}


def _segment_mechanisms(
    first_dir: str, last_dir: str, arch: str
) -> List[Edge]:
    """Program-order edges available between two accesses of given directions."""
    mechanisms: List[Edge] = [po(first_dir, last_dir)]
    for fence in FENCES_BY_ARCH.get(arch, ()):
        mechanisms.append(fenced(fence, first_dir, last_dir))
    if first_dir == "R":
        for kind in DEPS_BY_ARCH.get(arch, ()):
            if kind == "data" and last_dir != "W":
                continue
            if kind in ("ctrlisync", "ctrlisb") and last_dir != "R":
                # ctrl+cfence is interesting on read targets; plain ctrl
                # already covers the write targets.
                continue
            mechanisms.append(dep(kind, last_dir))
    return mechanisms


def _communication_choices(count: int) -> Iterator[Tuple[Edge, ...]]:
    """All tuples of `count` external communication edges."""
    constructors = list(_COMMUNICATIONS.values())
    for combination in itertools.product(constructors, repeat=count):
        yield tuple(make() for make in combination)


def critical_cycles(
    num_threads: int, arch: str
) -> Iterator[Cycle]:
    """All critical cycles with one two-access segment per thread.

    Each thread holds exactly two accesses linked by a program-order
    mechanism; consecutive threads are linked by an external
    communication edge.  (Single-access threads, as in wrc or iriw, are
    produced by :func:`extended_family`.)
    """
    for communications in _communication_choices(num_threads):
        # Directions of each thread's first/last access are imposed by the
        # communication edges around it.
        first_dirs = [communications[(i - 1) % num_threads].dst_dir for i in range(num_threads)]
        last_dirs = [communications[i].src_dir for i in range(num_threads)]
        per_thread_options = [
            _segment_mechanisms(first_dirs[i], last_dirs[i], arch)
            for i in range(num_threads)
        ]
        for segments in itertools.product(*per_thread_options):
            edges: List[Edge] = []
            for i in range(num_threads):
                edges.append(segments[i])
                edges.append(communications[i])
            try:
                yield Cycle.of(edges)
            except ValueError:
                continue


def two_thread_family(arch: str = "power", limit: Optional[int] = None) -> List[LitmusTest]:
    """All two-thread critical-cycle tests over the architecture's vocabulary."""
    return _generate(critical_cycles(2, arch), arch, limit)


def three_thread_family(arch: str = "power", limit: Optional[int] = None) -> List[LitmusTest]:
    """All three-thread critical-cycle tests (one segment per thread)."""
    return _generate(critical_cycles(3, arch), arch, limit)


def standard_family(
    arch: str = "power", max_threads: int = 3, limit: Optional[int] = None
) -> List[LitmusTest]:
    """The default campaign family: 2-thread plus (optionally) 3-thread cycles."""
    cycles: Iterator[Cycle] = critical_cycles(2, arch)
    if max_threads >= 3:
        cycles = itertools.chain(cycles, critical_cycles(3, arch))
    return _generate(cycles, arch, limit)


def extended_family(arch: str = "power", limit: Optional[int] = None) -> List[LitmusTest]:
    """Cycles mixing one-access and two-access threads (wrc/rwc/iriw shapes)."""
    tests: List[LitmusTest] = []
    seen: set = set()
    fences = FENCES_BY_ARCH.get(arch, ())
    deps = DEPS_BY_ARCH.get(arch, ())

    def reader_mechanisms() -> List[Edge]:
        options = [po("R", "R")]
        options += [fenced(f, "R", "R") for f in fences]
        options += [dep(k, "R") for k in deps if k != "data"]
        return options

    # wrc / iriw shapes: writer threads with a single write, reader threads
    # with two reads kept in order by some mechanism.
    for first in reader_mechanisms():
        for second in reader_mechanisms():
            wrc_edges = [rfe(), dep("addr", "W"), rfe(), second, fre()]
            iriw_edges = [rfe(), first, fre(), rfe(), second, fre()]
            for edges in (wrc_edges, iriw_edges):
                try:
                    cycle = Cycle.of(list(edges))
                except ValueError:
                    continue
                test = generate_test(cycle, arch=arch)
                if test.name in seen:
                    continue
                seen.add(test.name)
                tests.append(test)
                if limit is not None and len(tests) >= limit:
                    return tests
    return tests


@dataclass
class FamilySweep(JsonReportMixin):
    """Verdicts of one family under one model (a column of Tab. V/IX)."""

    model_name: str
    #: per test, in family order: ``(test name, "Allow" | "Forbid")``.
    verdicts: Tuple[Tuple[str, str], ...]
    #: quarantined tests of a supervised sweep
    #: (:class:`~repro.campaign.FailedItem` records); ``verdicts`` then
    #: covers exactly the survivors, in family order.
    errors: Tuple = ()

    @property
    def num_tests(self) -> int:
        return len(self.verdicts)

    @property
    def num_allowed(self) -> int:
        return sum(1 for _, verdict in self.verdicts if verdict == "Allow")

    @property
    def num_forbidden(self) -> int:
        return self.num_tests - self.num_allowed

    def verdict_of(self, name: str) -> str:
        for test_name, verdict in self.verdicts:
            if test_name == name:
                return verdict
        raise KeyError(f"no test named {name!r} in this sweep")

    def describe(self) -> str:
        quarantined = f", {len(self.errors)} quarantined" if self.errors else ""
        return (
            f"{self.num_tests} tests under {self.model_name}: "
            f"{self.num_allowed} Allow, {self.num_forbidden} Forbid{quarantined}"
        )

    def to_dict(self) -> dict:
        return {
            "type": "family-sweep",
            "model": self.model_name,
            "num_tests": self.num_tests,
            "num_allowed": self.num_allowed,
            "num_forbidden": self.num_forbidden,
            "errors": [error.to_dict() for error in self.errors],
            "verdicts": [[name, test_verdict] for name, test_verdict in self.verdicts],
        }


def sweep_family(
    tests: Sequence[LitmusTest],
    model,
    processes=None,
    engine: str = "optimal",
    context_cache=None,
    chunk_size: int = 8,
    pool=None,
    policy=None,
    errors: Optional[List] = None,
) -> FamilySweep:
    """Allow/Forbid verdicts of every test of a family under one model.

    The batch driver behind the large-scale diy experiments: the
    single-model case of :func:`repro.compare.engine.paired_verdicts`.
    Verdicts of distinct tests are independent, so ``processes`` (an
    int, or ``"auto"`` for one worker per core) or a ``pool`` shards
    them over the campaign runtime, whatever form the model takes.  In
    chunks that run in-process, ``context_cache`` lets repeated sweeps
    of the same family (e.g. under several models) skip the front half
    of the pipeline.

    ``policy`` (a :class:`~repro.campaign.SupervisorPolicy`, or the
    pool's own default) makes the sweep fault-tolerant:
    quarantined tests are dropped from ``verdicts`` and recorded as
    :class:`~repro.campaign.FailedItem` entries on ``sweep.errors``
    (also appended to ``errors`` when the caller passes a list).
    """
    from repro.compare.engine import model_label, paired_verdicts

    failed: List = [] if errors is None else errors
    first_failure = len(failed)
    pairs = paired_verdicts(
        tests,
        [model],
        engine=engine,
        processes=processes,
        pool=pool,
        context_cache=context_cache,
        chunk_size=chunk_size,
        policy=policy,
        errors=failed,
    )
    return FamilySweep(
        # Canonical model name: model names match case-insensitively.
        model_name=model_label(model),
        verdicts=tuple((name, verdicts[0]) for name, verdicts in pairs),
        errors=tuple(failed[first_failure:]),
    )


def coherence_stress_family(
    arch: str = "power", threads: int = 2, writes_per_location: int = 6
) -> List[LitmusTest]:
    """Tests whose rf×co candidate grid explodes factorially.

    Each thread ``t`` writes ``1..m`` to its own location ``xt`` (a
    same-thread write burst: po-loc forces the coherence order, but the
    *grid* still holds all ``m!`` permutations per location) and then
    observes the next thread's location; the ``exists`` clause asks for
    the co-final value everywhere.  The grid is ``(m!)^threads`` per
    path combination with exactly one uniproc-consistent execution — the
    shape where enumerating per-location orders pays maximally and the
    optimal engine's constructive walk pays nothing.  Returned as a
    one-test family for sweep drivers.
    """
    from repro.litmus.ast import TestBuilder

    builder = TestBuilder(
        f"coh-stress-{threads}x{writes_per_location}",
        arch=arch,
        doc="per-thread write bursts: (m!)^T candidate grid, one survivor",
    )
    observers = []
    for thread in range(threads):
        thread_builder = builder.thread()
        for value in range(1, writes_per_location + 1):
            thread_builder.store(f"x{thread}", value)
        observers.append(thread_builder.load(f"x{(thread + 1) % threads}"))
    builder.exists(
        {
            (thread, register): writes_per_location
            for thread, register in enumerate(observers)
        }
    )
    return [builder.build()]


def shared_gap_family(arch: str = "power") -> List[LitmusTest]:
    """Hand-built multi-cycle tests whose critical cycles share a gap.

    These are the shapes where the greedy cover provably overpays: the
    reader thread carries overlapping delay pairs whose spans cross one
    common insertion gap, and the cheapest cover places a single strong
    fence there — but greedy, maximizing pairs-per-cost one round at a
    time, first grabs a cheap mechanism that leaves the expensive pair
    to be fenced separately.  The exact ILP strategy finds the shared
    fence (see ``tests/test_fence_ilp.py`` for the cost accounting).
    """
    from repro.litmus.ast import TestBuilder

    builder = TestBuilder(
        "sharedgap",
        arch=arch,
        doc="overlapping critical cycles share one fence gap",
    )
    t0 = builder.thread()
    r1 = t0.load("x")
    t0.store("y", 1)
    r2 = t0.load("z")
    t1 = builder.thread()
    t1.store("z", 1)
    t1.store("x", 1)
    t2 = builder.thread()
    t2.store("z", 2)
    t2.store("y", 2)
    builder.exists({(0, r1): 1, (0, r2): 0})
    return [builder.build()]


@dataclass
class CostComparison(JsonReportMixin):
    """Greedy-vs-ILP placement costs over one family (per strategy)."""

    model_name: str
    #: per test, in family order: ``(test name, greedy cost, ilp cost)``.
    rows: Tuple[Tuple[str, float, float], ...]
    greedy_seconds: float = 0.0
    ilp_seconds: float = 0.0

    @property
    def num_tests(self) -> int:
        return len(self.rows)

    @property
    def greedy_total(self) -> float:
        return sum(row[1] for row in self.rows)

    @property
    def ilp_total(self) -> float:
        return sum(row[2] for row in self.rows)

    @property
    def gap(self) -> float:
        """Total cost the greedy cover overpays versus the optimum."""
        return self.greedy_total - self.ilp_total

    @property
    def num_strictly_cheaper(self) -> int:
        return sum(1 for _, greedy, ilp in self.rows if ilp < greedy)

    def describe(self) -> str:
        return (
            f"{self.num_tests} tests under {self.model_name}: greedy cost "
            f"{self.greedy_total:g}, ilp cost {self.ilp_total:g} "
            f"(gap {self.gap:g}, ilp strictly cheaper on "
            f"{self.num_strictly_cheaper})"
        )

    def to_dict(self) -> dict:
        return {
            "type": "cost-comparison",
            "model": self.model_name,
            "num_tests": self.num_tests,
            "greedy_total": self.greedy_total,
            "ilp_total": self.ilp_total,
            "gap": self.gap,
            "num_strictly_cheaper": self.num_strictly_cheaper,
            "greedy_seconds": self.greedy_seconds,
            "ilp_seconds": self.ilp_seconds,
            "rows": [[name, greedy, ilp] for name, greedy, ilp in self.rows],
        }


def compare_placement_costs(
    tests: Sequence[LitmusTest],
    model,
    processes=None,
    chunk_size: int = 8,
    pool=None,
) -> CostComparison:
    """Repair a family under both placement strategies and tally costs.

    Runs :func:`repro.fences.campaign.repair_family` twice — greedy,
    then ILP — with separate memo caches, and pairs up the validated
    per-test costs.  Sharding semantics are exactly those of
    ``repair_family``; both passes use the same settings so the timings
    are comparable.
    """
    import time

    from repro.fences.campaign import repair_family

    tests = list(tests)
    results = {}
    timings = {}
    for strategy in ("greedy", "ilp"):
        start = time.perf_counter()
        results[strategy] = repair_family(
            tests,
            model,
            processes=processes,
            chunk_size=chunk_size,
            pool=pool,
            strategy=strategy,
        )
        timings[strategy] = time.perf_counter() - start
    rows = tuple(
        (greedy.test_name, greedy.cost, ilp.cost)
        for greedy, ilp in zip(results["greedy"].reports, results["ilp"].reports)
    )
    return CostComparison(
        model_name=results["greedy"].model_name,
        rows=rows,
        greedy_seconds=timings["greedy"],
        ilp_seconds=timings["ilp"],
    )


def _generate(
    cycles: Iterable[Cycle], arch: str, limit: Optional[int]
) -> List[LitmusTest]:
    tests: List[LitmusTest] = []
    seen: set = set()
    for cycle in cycles:
        test = generate_test(cycle, arch=arch)
        if test.name in seen:
            # Same name means same shape; keep the first occurrence only.
            continue
        seen.add(test.name)
        tests.append(test)
        if limit is not None and len(tests) >= limit:
            break
    return tests
