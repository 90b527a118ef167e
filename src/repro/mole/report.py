"""mole censuses: per-program and per-corpus pattern counts (Tab. XIII/XIV).

The paper reports, for PostgreSQL, RCU and Apache (and in aggregate for
the whole Debian distribution), how many static cycles of each pattern
(mp, s, coWR, ...) appear and which axiom of the model each falls under.
:func:`analyse_program` produces that census for one program;
:func:`analyse_corpus` aggregates over a package corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.mole.analysis import StaticCycle, find_cycles
from repro.report import JsonReportMixin
from repro.verification.program import Program


@dataclass
class MoleReport(JsonReportMixin):
    """The census of one program (or one package aggregate)."""

    name: str
    cycles: List[StaticCycle] = field(default_factory=list)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def patterns(self) -> Dict[str, int]:
        """Pattern name -> number of cycles (one row group of Tab. XIII/XIV)."""
        counts: Dict[str, int] = {}
        for cycle in self.cycles:
            counts[cycle.name] = counts.get(cycle.name, 0) + 1
        return dict(sorted(counts.items()))

    def axioms(self) -> Dict[str, int]:
        """Axiom -> number of cycles falling under it."""
        counts: Dict[str, int] = {}
        for cycle in self.cycles:
            counts[cycle.axiom] = counts.get(cycle.axiom, 0) + 1
        return dict(sorted(counts.items()))

    def critical_cycles(self) -> List[StaticCycle]:
        return [cycle for cycle in self.cycles if cycle.is_critical]

    def sc_per_location_cycles(self) -> List[StaticCycle]:
        return [cycle for cycle in self.cycles if not cycle.is_critical]

    def describe(self) -> str:
        lines = [f"mole census for {self.name}: {self.num_cycles} cycles"]
        for pattern, count in self.patterns().items():
            lines.append(f"  {pattern:24s} {count}")
        lines.append("  by axiom:")
        for axiom, count in self.axioms().items():
            lines.append(f"    {axiom:20s} {count}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "type": "mole-census",
            "name": self.name,
            "num_cycles": self.num_cycles,
            "num_critical": len(self.critical_cycles()),
            "num_sc_per_location": len(self.sc_per_location_cycles()),
            "patterns": self.patterns(),
            "axioms": self.axioms(),
            "cycles": [cycle.describe() for cycle in self.cycles],
        }


def analyse_program(program: Program, max_cycle_length: int = 6) -> MoleReport:
    """Run mole on one program."""
    return MoleReport(name=program.name, cycles=find_cycles(program, max_cycle_length))


def analyse_corpus(
    corpus: Mapping[str, Iterable[Program]],
    max_cycle_length: int = 6,
    processes=None,
    chunk_size: int = 2,
    pool=None,
    policy=None,
    errors: Optional[List] = None,
) -> Dict[str, MoleReport]:
    """Run mole over a whole corpus; one aggregated report per package.

    The corpus is one batch of the campaign runtime, one job per
    package; ``processes`` (an int, or ``"auto"`` for one worker per
    core) or a ``pool`` (a session's warm workers, reused instead of
    spinning a fresh pool per call) spreads the per-package cycle
    searches over worker processes — packages are independent, and the
    static analysis is pure, so a census does not depend on where its
    chunks ran.

    ``policy`` (a :class:`~repro.campaign.SupervisorPolicy`, or the
    pool's own default) makes the census fault-tolerant: quarantined
    packages are dropped from the report dictionary and appended to
    ``errors`` (when the caller passes a list) as
    :class:`~repro.campaign.FailedItem` records.
    """
    from repro.campaign.jobs import MoleJob, mole_chunk
    from repro.campaign.runner import run_sharded

    jobs = [
        MoleJob(package, tuple(programs), max_cycle_length)
        for package, programs in corpus.items()
    ]
    return {
        package: MoleReport(name=package, cycles=cycles)
        for package, cycles in run_sharded(
            mole_chunk,
            jobs,
            processes=processes,
            chunk_size=chunk_size,
            pool=pool,
            policy=policy,
            errors=errors,
        )
    }
