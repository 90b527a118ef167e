"""One set-up measurement in a fresh interpreter: ``import repro`` to the
first answered query.

    python3 perfbench/setup_probe.py <workload>

Prints ``{"setup_s": ...}``.  The sweeps resolve their models and answer
one query on the registry test ``sb`` (under every model for the verdict
sweep, a full Power summary for the burst sweep).  The service workload binds a
server, starts its two-worker pool and answers one warm-up request; the
shutdown that follows is not timed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MODELS = ("sc", "tso", "power", "arm")


def main(workload: str) -> float:
    start = perf_counter()
    import repro  # noqa: F401 — the clock covers the package import
    from repro import Session, get_test

    if workload == "service-verdict":
        from repro.service import ServiceClient, ServiceConfig, ServiceThread

        handle = ServiceThread(
            config=ServiceConfig(port=0, verdict_cache_size=0), processes=2
        ).start()
        try:
            client = ServiceClient(*handle.address)
            response = client.verdict(["sb", "mp"], model="power", deadline=60.0)
            elapsed = perf_counter() - start
            client.close()
            if response.status != 200:
                raise RuntimeError(f"warm-up request failed: {response!r}")
        finally:
            handle.__exit__(None, None, None)
        return elapsed

    test = get_test("sb")
    session = Session()
    if workload == "verdict-sweep":
        for model in MODELS:
            session.resolve(model)
        for model in MODELS:
            session.verdict(test, model)
    else:
        session.resolve("power")
        session.simulate(test, "power")
    return perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(sys.argv[1])}))
