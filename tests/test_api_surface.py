"""API-surface snapshots: the public names of the package root and of
every driver subpackage.  These tests fail when a public name vanishes
(or silently appears), which is exactly when a deliberate decision —
and a changelog entry — is required.

The root re-exports are lazy: ``import repro`` must not pay for any
driver import until a name is actually used (checked in a subprocess so
this test is independent of import order elsewhere in the suite).
"""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

#: The committed public surface of the package root.
ROOT_API = [
    "CacheStats",
    "CampaignPool",
    "ComparisonReport",
    "ContextCache",
    "CorpusBudget",
    "LitmusTest",
    "Metrics",
    "MetricsSnapshot",
    "Report",
    "Session",
    "SimulationResult",
    "Simulator",
    "TestBuilder",
    "__version__",
    "all_tests",
    "analyse",
    "compare_models",
    "default_session",
    "get_test",
    "load_builtin_model",
    "observe",
    "repair",
    "resolve_model",
    "simulate",
    "sweep",
    "verdict",
    "verify",
]

#: The committed public surface of each driver subpackage.
SUBPACKAGE_API = {
    "repro.campaign": [
        "CampaignPicklingWarning",
        "CampaignPool",
        "ContextCache",
        "DEFAULT_CHUNK_SIZE",
        "FailedItem",
        "PoisonItemError",
        "ErrorRing",
        "SimulationContext",
        "SupervisorPolicy",
        "chunked",
        "run_sharded",
        "test_fingerprint",
        "worker_count",
    ],
    "repro.compare": [
        "ComparisonReport",
        "CorpusBudget",
        "Witness",
        "classify",
        "compare_models",
        "comparison_corpus",
        "event_count",
        "find_distinguishing_tests",
        "minimal_witness",
        "paired_verdicts",
        "size_key",
        "uses_dependencies",
        "uses_fences",
    ],
    "repro.cat": [
        "CatModel",
        "builtin_model_names",
        "builtin_model_source",
        "clear_model_cache",
        "load_builtin_model",
        "load_cat_model",
        "parse_cat",
    ],
    "repro.diy": [
        "Cycle",
        "Edge",
        "FamilySweep",
        "coe",
        "coi",
        "cycle_name",
        "dep",
        "extended_family",
        "fenced",
        "fre",
        "fri",
        "generate_test",
        "po",
        "rfe",
        "rfi",
        "standard_family",
        "sweep_family",
        "two_thread_family",
    ],
    "repro.fences": [
        "AbstractEvent",
        "AbstractEventGraph",
        "CampaignResult",
        "CriticalCycle",
        "Mechanism",
        "PLACEMENT_STRATEGIES",
        "Placement",
        "PoEdge",
        "RepairError",
        "RepairReport",
        "aeg_from_litmus",
        "aeg_from_program",
        "apply_placements",
        "critical_cycles",
        "plan_ilp_cover",
        "plan_placements",
        "repair_family",
        "repair_one",
        "repair_test",
        "solve_cover",
        "validate_repair",
    ],
    "repro.hardware": [
        "CampaignReport",
        "Erratum",
        "ObservedTest",
        "SimulatedChip",
        "chip_by_name",
        "classify_anomalies",
        "default_arm_chips",
        "default_power_chips",
        "observe_test",
        "run_campaign",
    ],
    "repro.herd": [
        "Candidate",
        "SimulationResult",
        "Simulator",
        "candidate_executions",
        "simulate",
    ],
    "repro.mole": [
        "MoleReport",
        "StaticAccess",
        "StaticCycle",
        "analyse_corpus",
        "analyse_program",
        "corpus_package_names",
        "debian_corpus",
        "find_cycles",
    ],
    "repro.telemetry": [
        "CacheStats",
        "Counter",
        "Gauge",
        "Histogram",
        "Metrics",
        "MetricsSnapshot",
        "SpanEvent",
        "active",
        "count",
        "disable",
        "enable",
        "enabled",
        "observe",
        "set_gauge",
        "span",
        "timer",
    ],
    "repro.service": [
        "CLOSED",
        "CircuitBreaker",
        "HALF_OPEN",
        "HttpError",
        "OPEN",
        "ServiceClient",
        "ServiceConfig",
        "ServiceResponse",
        "ServiceThread",
        "VerdictService",
        "serve",
    ],
    "repro.session": [
        "Session",
        "analyse",
        "compare",
        "default_session",
        "observe",
        "repair",
        "simulate",
        "sweep",
        "verdict",
        "verify",
    ],
    "repro.verification": [
        "AssertStmt",
        "Assign",
        "BinOp",
        "BoundedModelChecker",
        "Const",
        "FenceStmt",
        "IfStmt",
        "LoadStmt",
        "Program",
        "StoreStmt",
        "Var",
        "VerificationResult",
        "WhileStmt",
        "all_examples",
        "apache_example",
        "postgresql_example",
        "rcu_example",
        "verify_batch",
        "verify_litmus",
        "verify_program",
    ],
}


def test_root_all_matches_the_snapshot():
    import repro

    assert sorted(repro.__all__) == sorted(ROOT_API)


def test_every_root_name_resolves():
    import repro

    for name in ROOT_API:
        assert getattr(repro, name) is not None, name
    # Resolved names are cached into the package namespace.
    assert "Session" in vars(repro)


def test_unknown_root_names_raise_attribute_error():
    import repro

    with pytest.raises(AttributeError):
        repro.definitely_not_a_public_name


def test_dir_lists_the_lazy_exports():
    import repro

    listing = dir(repro)
    for name in ROOT_API:
        assert name in listing


@pytest.mark.parametrize("module_name", sorted(SUBPACKAGE_API))
def test_subpackage_all_matches_the_snapshot(module_name):
    module = importlib.import_module(module_name)
    assert sorted(module.__all__) == sorted(SUBPACKAGE_API[module_name])
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{module_name}.{name}"


def test_importing_repro_is_lazy():
    """``import repro`` must not import any driver; touching one verb
    must only import what that verb needs."""
    code = (
        "import sys; import repro; "
        "heavy = [m for m in sys.modules if m.startswith('repro.')]; "
        "assert not heavy, f'import repro pulled in {heavy}'; "
        "repro.get_test; "
        "assert 'repro.litmus.registry' in sys.modules; "
        "assert 'repro.fences' not in sys.modules; "
        "assert 'repro.verification' not in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": "src"},
        cwd=__file__.rsplit("/tests/", 1)[0],
    )
