#!/usr/bin/env python3
"""Observability: trace a repair campaign and read the counter tree.

Every layer of the toolbox is instrumented — the planned engine counts
its walks, the executions it built and the extension steps behind them,
the ILP solver counts branch-and-bound nodes and LP-bound prunes, the campaign
runtime times every chunk, and all the caches report hits and misses
through one interface.  Nothing is collected until you ask:

* ``Session(telemetry=True)`` (or ``session.enable_telemetry()``) turns
  collection on for the process, including any campaign workers the
  session fans out to — their counters are merged back into the
  session's registry, so ``session.stats()`` is one coherent tree no
  matter where the work ran;
* ``session.trace(path)`` additionally tees the span trace (one JSON
  line per timed region, plus a trailing summary line) to a file.

Run with::

    python examples/trace_a_campaign.py
"""

import json
import os
import tempfile

from repro import Session
from repro.litmus.registry import get_test

TESTS = ("mp", "sb", "lb", "wrc", "iriw", "2+2w")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "campaign-trace.jsonl")

        with Session(model="power", processes=2) as session:
            # Collect telemetry for the block and tee the trace to disk.
            with session.trace(trace_path):
                campaign = session.repair([get_test(name) for name in TESTS])
                sweep = session.sweep([get_test(name) for name in TESTS])
            stats = session.stats()

        print("== the campaign itself")
        print(campaign.describe())
        print(f"sweep: {[v for _, v in sweep.verdicts]}")

        print("\n== the merged counter tree (session + workers)")
        counters = stats["telemetry"]["counters"]
        for name in sorted(counters):
            print(f"  {name:<32} {counters[name]}")

        print("\n== every cache, one interface")
        for name, cache in sorted(stats["caches"].items()):
            print(
                f"  {name:<10} entries={cache['entries']:<4}"
                f" hits={cache['hits']:<4} misses={cache['misses']:<4}"
                f" hit_rate={cache['hit_rate']:.2f}"
            )

        print("\n== the span trace on disk")
        with open(trace_path) as handle:
            lines = [json.loads(line) for line in handle]
        spans, summary = lines[:-1], lines[-1]
        print(f"  {trace_path}: {len(spans)} spans + 1 summary line")
        slowest = sorted(spans, key=lambda s: -s["duration"])[:3]
        for span in slowest:
            tags = ",".join(f"{k}={v}" for k, v in sorted(span["tags"].items()))
            print(f"  {span['duration'] * 1e3:8.3f} ms  {span['name']}  [{tags}]")
        assert summary["type"] == "metrics"

        # The human-readable table of the same snapshot:
        print("\n== session.telemetry.snapshot().describe()")
        print(session.telemetry.snapshot().describe())


if __name__ == "__main__":
    main()
