"""Deterministic fault injection for the campaign runtime (tests only).

The fault-tolerance guarantees of :mod:`repro.campaign.supervisor` —
self-healing pools, chunk deadlines, poison-item bisection — are only
worth committing if they are exercised by real worker crashes, hangs
and unpicklable exceptions.  This module provides the injectable hooks
the test-suite and benchmarks use to stage exactly those failures at an
exactly chosen item:

* :class:`FaultSpec` — a picklable description of one fault: *what*
  (``crash`` via ``os._exit``, ``hang`` via a long sleep, ``raise`` a
  plain exception, ``raise_unpicklable`` an exception carrying a
  closure) and *where* (the item label it fires on).  With
  ``only_in_worker=True`` (the default) the fault never fires in the
  installing process, so ``on_error="serial_retry"`` demonstrably heals
  worker-only faults.
* :func:`install` / :func:`uninstall` — process-global plan, inherited
  by forked campaign workers, consulted by every driver chunk worker in
  :mod:`repro.campaign.jobs` through the zero-cost :func:`trip` hook.
* The spec can also ride a worker ``payload`` (it pickles fine) for
  runner-level tests that use the synthetic chunk workers below.

Nothing in the production path depends on this module: ``trip`` is one
module-global ``None`` check per job while no plan is installed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = [
    "FaultInjected",
    "FaultSpec",
    "UnpicklableFault",
    "echo_chunk",
    "install",
    "installed",
    "trip",
    "uninstall",
]


class FaultInjected(RuntimeError):
    """The plain injected exception (picklable like any RuntimeError)."""


class UnpicklableFault(RuntimeError):
    """An injected exception that can never cross a process boundary.

    Carries a closure, so ``pickle`` refuses the instance — exactly the
    shape that kills a bare process pool's result machinery and that
    the supervisor's error envelopes must flatten to strings.
    """

    def __init__(self, label: str):
        super().__init__(f"unpicklable fault injected on {label!r}")
        self.label = label
        self.payload = lambda: label  # the unpicklable part


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: fire *kind* when *target* is processed.

    ``kind`` is ``"crash"`` (``os._exit(exit_code)``, simulating an
    OOM-kill or native segfault), ``"hang"`` (sleep ``hang_seconds``,
    simulating a runaway job), ``"raise"`` (a picklable
    :class:`FaultInjected`) or ``"raise_unpicklable"`` (an
    :class:`UnpicklableFault`).  ``target`` is the item label as
    :func:`repro.campaign.supervisor.item_label` renders it (a test
    name, a package name, or ``repr`` for plain values).

    ``only_in_worker`` keys the fault on the process: ``parent_pid`` is
    recorded at construction time (in the installing process), and the
    fault only fires in *other* processes — forked campaign workers —
    so in-process serial retries of the same item succeed.
    """

    kind: str
    target: str
    only_in_worker: bool = True
    parent_pid: int = field(default_factory=os.getpid)
    hang_seconds: float = 300.0
    exit_code: int = 77

    def __post_init__(self):
        if self.kind not in ("crash", "hang", "raise", "raise_unpicklable"):
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def maybe_fire(self, label: str) -> None:
        """Fire the fault if *label* is the target (and we are a worker)."""
        if label != self.target:
            return
        if self.only_in_worker and os.getpid() == self.parent_pid:
            return
        if self.kind == "crash":
            os._exit(self.exit_code)
        if self.kind == "hang":
            time.sleep(self.hang_seconds)
            return
        if self.kind == "raise":
            raise FaultInjected(f"fault injected on {label!r}")
        raise UnpicklableFault(label)


#: The process-global fault plan, or None (the production state).
#: Forked campaign workers inherit whatever was installed at fork time.
_PLAN: Optional[FaultSpec] = None


def install(spec: FaultSpec) -> FaultSpec:
    """Install *spec* as the process-global fault plan."""
    global _PLAN
    _PLAN = spec
    return spec


def uninstall() -> None:
    """Remove the fault plan (tests must always do this on teardown)."""
    global _PLAN
    _PLAN = None


def installed() -> Optional[FaultSpec]:
    return _PLAN


def trip(label: str) -> None:
    """The per-job hook the driver chunk workers call.

    One global read and a ``None`` check while no plan is installed —
    cheap enough to sit inside every chunk worker's item loop.
    """
    plan = _PLAN
    if plan is not None:
        plan.maybe_fire(label)


# -- synthetic chunk workers for runner-level tests and benchmarks --------------


def echo_chunk(chunk: List[Any], payload: Any = None) -> List[Any]:
    """Worker: double each item; fire the payload's fault spec if given.

    ``payload`` may be a :class:`FaultSpec` (shipped picklably with the
    chunk), letting runner-level tests inject faults without touching
    the process-global plan; any other payload is ignored, so the same
    worker serves the unpicklable-payload fallback tests.
    """
    results = []
    for item in chunk:
        if isinstance(payload, FaultSpec):
            payload.maybe_fire(repr(item))
        trip(repr(item))
        results.append(item * 2)
    return results


def busy_chunk(chunk: List[Any], payload: Any = None) -> List[Any]:
    """Worker: a small fixed CPU spin per item (benchmark healthy path)."""
    spins = payload or 2_000
    results = []
    for item in chunk:
        total = 0
        for i in range(spins):
            total += (item + i) * (item ^ i)
        results.append(total)
    return results
