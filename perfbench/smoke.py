"""The benchmark's own check, in about a minute.

    python3 perfbench/smoke.py

* every workload runs smoke-sized, untraced and traced, and must exit 0
  with ``correct`` true and print every metric ``BENCHMARK.json`` names
  for that mode, with its unit, both on its own line and in the JSON;
* the burst oracle must agree with the naive engine on the small cells;
* without ``src/`` next to it the benchmark must exit non-zero and print
  no result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workloads(benchmark) -> None:
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            done = run("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--smoke")
            assert done.returncode == 0, (workload, trace, done.stdout[-2000:], done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            expected = {m["name"]: m["unit"] for m in benchmark[section]}
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert printed == expected, (workload, trace, set(printed) ^ set(expected))
            for name, unit in expected.items():
                prefix = f"{workload} seed=3 {name} = "
                assert any(
                    line.startswith(prefix) and line.endswith(f" {unit}") for line in lines
                ), (workload, name)
            print(f"ok {workload} --trace {trace}: {len(expected)} metrics")


def check_burst_oracle() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bursts
    from repro import Simulator

    naive = Simulator("power", engine="naive")
    rng = random.Random(5)
    for cell in bursts.CELLS:
        if sum(cell[1]) > 3:
            continue
        test, expected = bursts.burst_test(rng, "oracle", cell)
        assert expected.matches(naive.run(test)), cell
    print("ok burst oracle agrees with the naive engine")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run("--workload", "verdict-sweep", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print("ok refuses to run without src/")


if __name__ == "__main__":
    check_burst_oracle()
    check_refuses_without_source()
    check_workloads(json.loads((ROOT / "BENCHMARK.json").read_text()))
