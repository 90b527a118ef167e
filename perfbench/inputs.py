"""The benchmark's inputs and the answers they must produce.

* :func:`corpus` — the litmus corpus of the verdict sweep: the paper's
  registry plus the diy Power two-thread, three-thread and extended
  families, each test keyed ``family/name`` (registry and diy names
  overlap).
* :class:`Reference` — the verdicts every query is checked against: the
  paper's expectations for registry tests, and for everything else the
  committed ``reference.json``, produced by ``make_reference.py`` with
  the brute-force naive engine, never with the planned engines timed.
* :func:`summary_record` — the comparable parts of a full summary, by
  which traced and untraced burst answers are compared.
* :func:`service_requests` — the seeded request list of the service
  workload.
* :func:`input_properties` — the per-workload input report.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

MODELS = ("sc", "tso", "power", "arm")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def corpus() -> List[Tuple[str, object]]:
    """``(key, test)`` for every test of the sweep corpus, in a fixed order."""
    from repro.diy.families import extended_family, three_thread_family, two_thread_family
    from repro.litmus.registry import all_tests

    families = (
        ("reg", all_tests()),
        ("two", two_thread_family("power")),
        ("three", three_thread_family("power")),
        ("ext", extended_family("power")),
    )
    return [(f"{family}/{test.name}", test) for family, tests in families for test in tests]


def digest(value) -> str:
    """A short stable hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint_digest(test) -> str:
    from repro.campaign.context import test_fingerprint

    return digest(repr(test_fingerprint(test)))


def summary_record(result) -> List:
    """Candidate and allowed counts, target reachability, condition and
    digests of the allowed and of all outcomes of a full summary."""
    return [
        result.num_candidates,
        result.num_allowed,
        result.target_reachable,
        result.condition_holds,
        digest(sorted(map(list, result.allowed_outcomes))),
        digest(sorted(map(list, result.all_outcomes))),
    ]


class Reference:
    """Expected verdicts, by corpus key."""

    def __init__(self, path: Path = REFERENCE_PATH):
        from repro.litmus.registry import entries

        with open(path) as handle:
            self.tests: Dict[str, Dict] = json.load(handle)["tests"]
        self.paper = {
            (f"reg/{entry.name}", model): verdict
            for entry in entries()
            for model, verdict in entry.expectations.items()
        }

    def stale(self, key: str, test) -> bool:
        """Has the generated test changed since the reference was made?"""
        entry = self.tests.get(key)
        return entry is None or entry["fp"] != fingerprint_digest(test)

    def verdict(self, key: str, model: str) -> Optional[str]:
        """The paper's verdict where it states one, else the naive oracle's."""
        paper = self.paper.get((key, model))
        if paper is not None:
            return paper
        entry = self.tests.get(key)
        if entry is None:
            return None
        return "Allow" if entry["verdicts"][MODELS.index(model)] == "A" else "Forbid"


def service_requests(rng, names: Sequence[str], count: int) -> List[Tuple[List[str], str]]:
    """``count`` requests of 2 to 4 distinct registry tests and one model."""
    return [
        (rng.sample(list(names), rng.randint(2, 4)), rng.choice(MODELS))
        for _ in range(count)
    ]


def input_properties(tests: Sequence) -> Dict[str, float]:
    """Test count, mean events, mean path combinations, mean candidate
    grid and the share of tests routed to the optimal engine by ``auto``."""
    from repro.herd.enumerate import combination_contexts
    from repro.herd.simulator import AUTO_OPTIMAL_WRITE_BURST, write_burst

    events = combinations = grid = bursts = 0
    for test in tests:
        sizes = []
        for context in combination_contexts(test):
            sizes.append(len(context.all_events))
            grid += context.total_candidates
        combinations += len(sizes)
        events += sum(sizes) / max(len(sizes), 1)
        bursts += write_burst(test) >= AUTO_OPTIMAL_WRITE_BURST
    count = len(tests)
    return {
        "inputs.tests": count,
        "inputs.mean_events": events / count,
        "inputs.mean_combinations": combinations / count,
        "inputs.mean_grid": grid / count,
        "inputs.burst_share": bursts / count,
    }
