"""Shared campaign runtime: process sharding plus per-test context caching.

The campaign drivers — :func:`repro.fences.campaign.repair_family`,
:func:`repro.hardware.testing.run_campaign`,
:func:`repro.mole.report.analyse_corpus`,
:func:`repro.diy.families.sweep_family` and
:func:`repro.verification.bmc.verify_batch` — all fan homogeneous
batches of independent simulate/verdict jobs over this one runtime:

* :mod:`repro.campaign.runner` — chunked, order-preserving work sharding:
  each driver makes one batch call, and the runner decides whether a
  chunk runs in a worker process or in-process, with byte-identical
  results by construction;
* :mod:`repro.campaign.supervisor` — the fault-tolerant execution layer:
  per-chunk deadlines, bounded retry with exponential backoff, worker
  death detection with automatic respawn (self-healing pools), and
  poison-item bisection with structured quarantine
  (:class:`~repro.campaign.supervisor.FailedItem`) under an
  ``on_error="quarantine"|"raise"|"serial_retry"`` policy;
* :mod:`repro.campaign.context` — per-test
  :class:`~repro.campaign.context.SimulationContext` memoization of the
  front half of the pipeline (thread paths, event interning, fixed
  relations, plans), keyed by structural test identity;
* :mod:`repro.campaign.jobs` — picklable job specs, which carry the
  caller's models and chips, and each worker's one piece of warm
  state, its context cache;
* :mod:`repro.campaign.faults` — deterministic fault injection (worker
  crash/hang/unpicklable-exception at a chosen item), used only by the
  test-suite and benchmarks to pin the fault-tolerance guarantees.
"""

from repro.campaign.context import ContextCache, SimulationContext, test_fingerprint
from repro.campaign.runner import (
    DEFAULT_CHUNK_SIZE,
    CampaignPool,
    chunked,
    run_sharded,
    worker_count,
)
from repro.campaign.supervisor import (
    CampaignPicklingWarning,
    ErrorRing,
    FailedItem,
    PoisonItemError,
    SupervisorPolicy,
)

__all__ = [
    "ContextCache",
    "SimulationContext",
    "test_fingerprint",
    "CampaignPool",
    "CampaignPicklingWarning",
    "DEFAULT_CHUNK_SIZE",
    "ErrorRing",
    "FailedItem",
    "PoisonItemError",
    "SupervisorPolicy",
    "chunked",
    "run_sharded",
    "worker_count",
]
