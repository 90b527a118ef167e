"""Regenerate ``reference.json``: naive-engine answers for the sweep corpus.

Run from the repository root::

    python3 perfbench/make_reference.py

For every corpus test it records the structural fingerprint and the
verdict under each benchmark model, computed with
``Simulator(engine="naive")`` — the brute-force oracle,
which the benchmark never times.  Registry tests must also agree with
the paper's expectations, or the script refuses to write the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from repro import Simulator  # noqa: E402
from repro.litmus.registry import entries  # noqa: E402


def main() -> int:
    oracles = {model: Simulator(model, engine="naive") for model in inputs.MODELS}
    paper = {entry.name: entry.expectations for entry in entries()}
    tests = {}
    for key, test in inputs.corpus():
        verdicts = {model: oracles[model].verdict(test) for model in inputs.MODELS}
        if key.startswith("reg/"):
            for model, verdict in verdicts.items():
                expected = paper[test.name].get(model)
                if expected is not None and expected != verdict:
                    print(f"{key} under {model}: naive {verdict}, paper {expected}")
                    return 1
        tests[key] = {
            "fp": inputs.fingerprint_digest(test),
            "verdicts": "".join(verdicts[model][0] for model in inputs.MODELS),
        }
    with open(inputs.REFERENCE_PATH, "w") as handle:
        handle.write(
            '{"engine": "naive", "models": %s, "tests": {\n' % json.dumps(inputs.MODELS)
        )
        handle.write(
            ",\n".join(
                f"{json.dumps(key)}: {json.dumps(entry, separators=(',', ':'))}"
                for key, entry in tests.items()
            )
        )
        handle.write("\n}}\n")
    print(f"wrote {len(tests)} tests to {inputs.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
