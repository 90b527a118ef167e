"""The repository benchmark: three seeded workloads against the public API.

    python3 perfbench/run.py --workload verdict-sweep --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``verdict-sweep`` — the registry plus the diy Power two-thread,
  three-thread and extended families in seeded order, a verdict under
  sc, tso, power and arm per test, on one serial ``Session``;
* ``coherence-bursts`` — seeded write-burst tests, full Power summaries
  with ``engine="auto"``;
* ``service-verdict`` — two keep-alive clients in a closed loop against
  an in-process verdict service over a two-worker pool.

``--trace 0`` measures the end-to-end metrics with telemetry off;
``--trace 1`` runs the workload untraced and then traced (see
``layers.py``) and reports the per-layer metrics.  Every answer is
checked; the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is non-zero
when any answer was wrong.  ``--smoke`` shrinks every input so a run
takes seconds (the benchmark's own check, ``smoke.py``, uses it).
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import multiprocessing
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import layers
import service_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("verdict-sweep", "coherence-bursts", "service-verdict")
MODELS = ("sc", "tso", "power", "arm")

SETUP_PROBES = 11
BURSTS_PER_CELL = 3
SERVICE_CLIENTS = 2
SERVICE_PROCESSES = 2
SERVICE_WARMUP_S = 1.0
#: The fewest passes a sweep run makes, however long each takes.
MIN_PASSES = 3
#: The sweeps' ``Session`` keeps one context.  A sweep queries each test
#: (under all its models) back to back and never returns to it, so one
#: entry serves every hit the default 256 would; with 256, each full pass
#: of the cyclic collector scanned every earlier test's context, and
#: where those pauses fell decided the per-test tail.
SWEEP_SESSION = {"cache_size": 1}
#: Requests replayed through the pooled and serial sessions (trace run).
REPLAY_LIMIT = 300
#: Requests of the service slice that the sweeps' trace runs add, so the
#: service-layer metrics are measured on every workload.
SLICE_REQUESTS = 60


def locate_package() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found next to perfbench/", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # Interpreters started later (setup probes, spawned workers) find it too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


class Run:
    """What one benchmark run measured and found."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}
        self.notes = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


# -- measurement helpers ----------------------------------------------------------


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_seconds(workload: str, probes: int) -> float:
    """Median, over fresh interpreters, of ``import repro`` to first answer.
    The package is byte-compiled first, as an installed one is (a fresh
    checkout has no bytecode, and ``PYTHONDONTWRITEBYTECODE`` would keep
    every probe compiling it), and one more probe runs first, unmeasured,
    to warm the file cache."""
    compileall.compile_dir(SRC / "repro", quiet=1)
    samples = []
    for _ in range(probes + 1):
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples[1:])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def freeze_inputs() -> None:
    """Move everything alive now (the generated inputs, the reference
    answers, the imported package) out of the cyclic collector's reach,
    so that its full passes cost what the program's own heap makes them
    cost, not what the benchmark's inputs add."""
    gc.collect()
    gc.freeze()


def stop_children() -> None:
    """Wait for every child process, terminating stragglers."""
    for child in multiprocessing.active_children():
        child.join(10.0)
        if child.is_alive():
            child.terminate()
            child.join(10.0)


# -- the sweeps ---------------------------------------------------------------------


class Sweep:
    """One sweep workload: its items, its query and its check."""

    def __init__(self, workload: str, rng, smoke: bool):

        self.workload = workload
        if workload == "coherence-bursts":
            import bursts

            cells = bursts.SMOKE_CELLS if smoke else bursts.CELLS
            drawn = bursts.burst_workload(rng, 1 if smoke else BURSTS_PER_CELL, cells)
            self.items = [(test.name, test, expected) for test, expected in drawn]
            self.models = ("power",)
        else:
            reference = inputs.Reference()
            corpus = inputs.corpus()
            if smoke:
                corpus = [item for i, item in enumerate(corpus)
                          if item[0].startswith("reg/") or i % 50 == 0]
            rng.shuffle(corpus)
            self.models = MODELS
            self.items = [
                (key, test, None if reference.stale(key, test)
                 else tuple(reference.verdict(key, model) for model in MODELS))
                for key, test in corpus
            ]
        self.queries_per_test = len(self.models)

    def query(self, session, test):
        if self.workload == "verdict-sweep":
            return tuple(session.verdict(test, model) for model in MODELS)
        return session.simulate(test, "power")

    def check(self, key, expected, answer):
        """``(comparable record, wrong queries, message)``."""

        if isinstance(answer, Exception):
            return repr(answer), self.queries_per_test, f"{key}: {answer!r}"
        if expected is None:
            return None, self.queries_per_test, f"{key}: no reference (stale?)"
        if self.workload == "verdict-sweep":
            wrong = sum(a != e for a, e in zip(answer, expected))
            return answer, wrong, f"{key}: {answer} != {expected}" if wrong else None
        record = inputs.summary_record(answer)
        ok = expected.matches(answer)
        return record, int(not ok), None if ok else f"{key}: summary {record} != {expected}"

    def run_pass(self, session, run: Run, tracer=None, order=None):
        """One pass over every item, in *order* (item indices; default as
        drawn): ``(wall seconds, per-test seconds, records)``, both by
        item.  Answers are checked after the pass, outside its wall time.

        Every pass starts from a collected heap, so that garbage left by
        the previous pass is not charged to this one."""
        count = len(self.items)
        times, answers = [0.0] * count, [None] * count
        gc.collect()
        pass_start = perf_counter()
        for index in range(count) if order is None else order:
            test = self.items[index][1]
            start = perf_counter()
            if tracer is not None:
                tracer.enter("session.query")
            try:
                answer = self.query(session, test)
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                answer = exc
            finally:
                if tracer is not None:
                    tracer.exit()
                times[index] = perf_counter() - start
            answers[index] = answer
        wall = perf_counter() - pass_start
        records = []
        for (key, _, expected), answer in zip(self.items, answers):
            record, wrong, message = self.check(key, expected, answer)
            run.attempted += self.queries_per_test
            if wrong:
                run.fail(wrong, message)
            records.append(record)
        return wall, times, records


def run_sweep(run: Run, rng, seconds: float, trace: bool, smoke: bool) -> None:
    from repro import Session

    sweep = Sweep(run.workload, rng, smoke)
    queries = len(sweep.items) * sweep.queries_per_test
    # Lazy imports and first-use costs belong to setup_s, not here.
    sweep.query(Session(**SWEEP_SESSION), sweep.items[0][1])
    freeze_inputs()

    if not trace:
        # Whole passes, as a user would run them, until the time is up.
        # Each pass is one batch: its wall time and the percentiles of its
        # per-test times are what the user of that batch sees, and the run
        # reports the median pass of each, so that a host stall slows one
        # pass, not the result.  Percentiles over per-test estimates
        # pooled across passes instead pick out the tests whose estimate
        # a slow stretch of the host inflated most, and spread further
        # than the host does.  Each pass runs the tests in its own seeded
        # order, so that the collector's pauses do not land on the same
        # tests in every pass.
        walls, p50s, p99s = [], [], []
        order = list(range(len(sweep.items)))
        deadline = perf_counter() + seconds
        while len(walls) < MIN_PASSES or perf_counter() < deadline:
            rng.shuffle(order)
            wall, pass_times, _ = sweep.run_pass(Session(**SWEEP_SESSION), run, order=order)
            pass_times.sort()
            walls.append(wall)
            p50s.append(percentile(pass_times, 0.50))
            p99s.append(percentile(pass_times, 0.99))
        run.metric("throughput_qps", queries / statistics.median(walls), "1/s")
        run.metric("latency_p50_ms", statistics.median(p50s) * 1e3, "ms")
        run.metric("latency_p99_ms", statistics.median(p99s) * 1e3, "ms")
        run.metric("peak_rss_mb", peak_rss_mb(), "MB")
        run.notes.update(
            tests=len(sweep.items),
            queries_per_pass=queries,
            pass_s=[round(wall, 3) for wall in walls],
        )
        return

    plain_wall, _, plain = sweep.run_pass(Session(**SWEEP_SESSION), run)
    tracer = layers.Tracer()
    with layers.instrumented(tracer):
        session = Session(**SWEEP_SESSION)
        for model in sweep.models:
            layers.instrument_model(tracer, session.resolve(model))
        traced_wall, _, traced = sweep.run_pass(session, run, tracer)
    mismatches = sum(a != b for a, b in zip(plain, traced))
    if mismatches:
        run.fail(mismatches, f"{mismatches} traced answers differ from untraced ones")
    report_layers(run, tracer, traced_wall, queries / plain_wall, queries / traced_wall)
    service_slice(run, rng)
    report_inputs(run, [test for _, test, _ in sweep.items])


# -- the service ----------------------------------------------------------------------


def serve(run: Run, requests, seconds=None, warmup=0.0):
    """Serve *requests* over HTTP for *seconds* (or until the list runs
    out) after *warmup* seconds of unmeasured requests.  Returns the
    measured records, the loop's start time, the peak RSS with the pool
    workers, and ``GET /stats``."""
    from repro.service import ServiceClient, ServiceConfig, ServiceThread

    reference = inputs.Reference()

    def expected(name, model):
        return reference.verdict(f"reg/{name}", model)

    def account(records):
        run.attempted += len(records)
        for record in records:
            if record.error is not None:
                run.fail(1, f"request {record.index}: {record.error}")

    config = ServiceConfig(port=0, verdict_cache_size=0)
    with ServiceThread(config=config, processes=SERVICE_PROCESSES) as handle:
        first = 0
        if warmup:
            warm, _ = service_loop.closed_loop(
                handle.address, requests, expected, SERVICE_CLIENTS,
                stop_at=perf_counter() + warmup,
            )
            account(warm)
            first = len(warm)
        stop_at = None if seconds is None else perf_counter() + seconds
        records, start = service_loop.closed_loop(
            handle.address, requests, expected, SERVICE_CLIENTS, stop_at, first
        )
        account(records)
        rss = peak_rss_mb()
        stats = ServiceClient(*handle.address).stats()
    stop_children()
    return records, start, rss, stats


def service_layers(run: Run, requests, records, stats, tracer=None) -> None:
    """Split the HTTP latency of the answered requests: replayed one at a
    time, HTTP minus a warm pooled ``Session.verdict`` is the front door,
    pooled minus a warm serial one the dispatch, serial the compute.
    Given a tracer, also trace a serial replay for the layers below."""
    from repro import Session
    from repro.litmus.registry import get_test

    answered = [r for r in records if r.error is None][:REPLAY_LIMIT]
    replayed = [requests[r.index] for r in answered]
    tests = {name: get_test(name) for names, _ in replayed for name in names}
    with Session(model="power", processes=SERVICE_PROCESSES) as pooled:
        pooled.verdict([get_test("sb"), get_test("mp")])
        pooled_rows = service_loop.replay(pooled, replayed, tests)
    stop_children()
    serial_rows = service_loop.replay(Session(), replayed, tests)
    run.attempted += 2 * len(replayed)
    http_ms = statistics.fmean(r.latency_s for r in answered) * 1e3
    pooled_ms = statistics.fmean(row[0] for row in pooled_rows) * 1e3
    serial_ms = statistics.fmean(row[0] for row in serial_rows) * 1e3
    run.metric("service.front_door_ms", http_ms - pooled_ms, "ms")
    run.metric("campaign.dispatch_ms", pooled_ms - serial_ms, "ms")
    run.metric("herd.compute_ms", serial_ms, "ms")
    counters = stats["service"]["counters"]
    supervisor = stats["session"]["supervisor"]["counters"]
    run.metric(
        "service.batch_size", counters["batched_items"] / max(counters["batches"], 1), "items"
    )
    run.metric("service.batches", counters["batches"], "count")
    run.metric("campaign.supervisor.retries", supervisor["retries"], "count")
    run.metric("campaign.supervisor.worker_deaths", supervisor["worker_deaths"], "count")
    answers = [r.verdicts for r in answered]
    replays = [("pooled", pooled_rows), ("serial", serial_rows)]
    if tracer is not None:

        with layers.instrumented(tracer):
            session = Session()
            for model in MODELS:
                layers.instrument_model(tracer, session.resolve(model))
            traced_rows = service_loop.replay(session, replayed, tests, span=tracer)
        run.attempted += len(replayed)
        replays.append(("traced", traced_rows))
        traced_s = sum(row[0] for row in traced_rows)
        report_layers(
            run, tracer, traced_s,
            len(replayed) / sum(row[0] for row in serial_rows),
            len(replayed) / traced_s,
        )
        report_inputs(run, list(tests.values()))
    for label, rows in replays:
        differ = sum(a != row[1] for a, row in zip(answers, rows))
        if differ:
            run.fail(differ, f"{differ} {label} replays differ from the HTTP answers")


def service_slice(run: Run, rng) -> None:
    """The service-layer metrics of a sweep's trace run: a short slice of
    seeded registry requests through the same three paths."""
    from repro.litmus.registry import names

    requests = inputs.service_requests(rng, names(), SLICE_REQUESTS)
    records, _, _, stats = serve(run, requests)
    service_layers(run, requests, records, stats)


def run_service(run: Run, rng, seconds: float, trace: bool, smoke: bool) -> None:
    from repro.litmus.registry import names

    requests = inputs.service_requests(rng, names(), 200 if smoke else 20000)
    freeze_inputs()
    records, start, rss, stats = serve(run, requests, seconds, SERVICE_WARMUP_S)
    if trace:
        service_layers(run, requests, records, stats, layers.Tracer())
        return
    latency = sorted(r.latency_s for r in records)
    run.metric("throughput_qps", len(records) / (max(r.done for r in records) - start), "1/s")
    run.metric("latency_p50_ms", percentile(latency, 0.50) * 1e3, "ms")
    run.metric("latency_p99_ms", percentile(latency, 0.99) * 1e3, "ms")
    run.metric("peak_rss_mb", rss, "MB")
    run.notes.update(requests=len(records))


# -- reporting ------------------------------------------------------------------------


def report_layers(
    run: Run, tracer, traced_s: float, plain_qps: float, traced_qps: float
) -> None:
    """Report the tracer's layers for a traced stretch of *traced_s* wall
    seconds; fail when the spans' self times miss that wall time."""
    for name, (value, unit) in tracer.layer_metrics(traced_s).items():
        run.metric(name, value, unit)
    run.metric("trace.untraced_qps", plain_qps, "1/s")
    run.metric("trace.traced_qps", traced_qps, "1/s")
    run.metric("trace.overhead", plain_qps / traced_qps, "ratio")
    gap = tracer.self_time_gap(traced_s)
    if gap > layers.SELF_TIME_TOLERANCE:
        run.fail(1, f"self times miss the traced wall time by {gap:.2%}")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{run.workload}-seed{run.seed}.spans.jsonl.gz")


def report_inputs(run: Run, tests) -> None:

    for name, value in inputs.input_properties(tests).items():
        run.metric(name, value, "count" if name == "inputs.tests" else "mean")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    locate_package()

    run = Run(args.workload, args.seed)
    rng = random.Random(f"{args.workload}:{args.seed}")
    if not args.trace:
        run.metric("setup_s", setup_seconds(args.workload, 1 if args.smoke else SETUP_PROBES), "s")
    try:
        if args.workload == "service-verdict":
            run_service(run, rng, args.seconds, bool(args.trace), args.smoke)
        else:
            run_sweep(run, rng, args.seconds, bool(args.trace), args.smoke)
    finally:
        stop_children()
    # failed_share is printed but kept out of the JSON metrics: it is 0 on
    # every healthy run, and ``failed``/``attempted`` carry it there.
    run.notes["failed_share"] = f"{run.failed / max(run.attempted, 1)} share"

    for name, value in run.notes.items():
        print(f"{run.workload} seed={run.seed} {name} = {value}")
    for name, entry in run.metrics.items():
        print(f"{run.workload} seed={run.seed} {name} = {entry['value']} {entry['unit']}")
    for message in run.errors:
        print(f"{run.workload} seed={run.seed} FAILED {message}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
