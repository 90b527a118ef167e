"""Command line for the model comparator: ``python -m repro.compare A B``.

Compares two models over a bounded corpus and prints the verdict with
the minimal witness per direction, or — with ``--violates`` /
``--satisfies`` — lists the corpus tests matching a memalloy-style
filter (forbidden by every ``--violates`` model, allowed by every
``--satisfies`` model), smallest first.

::

    $ python -m repro.compare tso power --events 4
    tso vs power on 187 tests: incomparable (57 distinguishing)
      tso allows r+syncs (4 events, 2 threads) where power forbids it
      power allows lb (4 events, 2 threads) where tso forbids it

Exit status is 0 whenever the comparison ran and 2 on usage errors (an
unknown engine, a corpus bound out of range); ``--json`` emits the
full :class:`~repro.compare.report.ComparisonReport` dictionary
instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.compare.corpus import CorpusBudget, event_count
from repro.herd.simulator import ENGINES


def _processes(value: str):
    return value if value == "auto" else int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compare",
        description=(
            "Compare two weak-memory models by sweeping a bounded corpus "
            "of litmus tests and reporting minimal distinguishing witnesses."
        ),
    )
    parser.add_argument(
        "models",
        nargs="*",
        help="two model names to compare (omit when using --violates/--satisfies)",
    )
    parser.add_argument(
        "--violates",
        action="append",
        default=[],
        metavar="MODEL",
        help="filter mode: keep tests forbidden by MODEL (repeatable)",
    )
    parser.add_argument(
        "--satisfies",
        action="append",
        default=[],
        metavar="MODEL",
        help="filter mode: keep tests allowed by MODEL (repeatable)",
    )
    parser.add_argument(
        "--events", type=int, default=6, help="event-count bound of the corpus"
    )
    parser.add_argument(
        "--threads", type=int, default=3, help="thread-count bound of the corpus"
    )
    parser.add_argument("--arch", default="power", help="corpus architecture")
    parser.add_argument(
        "--no-fences",
        action="store_true",
        help="fence-free corpus (where sc >= tso >= power is total)",
    )
    parser.add_argument(
        "--no-deps", action="store_true", help="drop dependency mechanisms"
    )
    parser.add_argument(
        "--no-registry", action="store_true", help="diy-generated tests only"
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="keep only the N smallest tests"
    )
    parser.add_argument(
        "--engine",
        default="optimal",
        choices=ENGINES,
        help="enumeration engine: the planned optimal engine or the naive oracle",
    )
    parser.add_argument(
        "--processes",
        type=_processes,
        default=None,
        help='shard paired verdicts over N workers ("auto" for one per core)',
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        budget = CorpusBudget(
            max_events=options.events,
            max_threads=options.threads,
            arch=options.arch,
            fences=not options.no_fences,
            dependencies=not options.no_deps,
            include_registry=not options.no_registry,
            limit=options.limit,
        )
    except ValueError as error:
        parser.error(str(error))  # exits 2
    filtering = bool(options.violates or options.satisfies)
    if filtering and options.models:
        print(
            "pass either two positional models or --violates/--satisfies, not both",
            file=sys.stderr,
        )
        return 2
    if not filtering and len(options.models) != 2:
        print("pass exactly two model names (e.g. tso power)", file=sys.stderr)
        return 2

    if filtering:
        from repro.compare.engine import find_distinguishing_tests

        matches = find_distinguishing_tests(
            violates=options.violates,
            satisfies=options.satisfies,
            budget=budget,
            engine=options.engine,
            processes=options.processes,
        )
        if options.json:
            print(
                json.dumps(
                    [
                        {
                            "test": test.name,
                            "events": event_count(test),
                            "threads": test.num_threads(),
                        }
                        for test in matches
                    ],
                    indent=2,
                )
            )
        else:
            clause = " and ".join(
                part
                for part in (
                    f"forbidden by {', '.join(options.violates)}" if options.violates else "",
                    f"allowed by {', '.join(options.satisfies)}" if options.satisfies else "",
                )
                if part
            )
            print(f"{len(matches)} tests {clause} (smallest first):")
            for test in matches:
                print(
                    f"  {test.name} ({event_count(test)} events, "
                    f"{test.num_threads()} threads)"
                )
        return 0

    from repro.compare.engine import compare_models

    model_a, model_b = options.models
    report = compare_models(
        model_a,
        model_b,
        budget=budget,
        engine=options.engine,
        processes=options.processes,
    )
    if options.json:
        print(report.to_json(indent=2))
    else:
        print(report.describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())
