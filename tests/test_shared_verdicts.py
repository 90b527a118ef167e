"""Every model's verdict of a test walks one shared verdict state.

A cached :class:`~repro.campaign.context.SimulationContext` keeps, per
plan, whether its outcome universe meets the target and the
target-matching leaves its verdict walks have materialized, each with
one :class:`~repro.core.execution.Execution` (see
:meth:`repro.herd.optimal.OptimalPlan.target_leaves`).  Whatever order
the models come in, a verdict on the shared context must equal a
context-free run field for field, publish the same engine and
simulator counters after the same number of model checks, and agree
with the naive oracle's verdict.

The corpus mixes the registry, whose memory-atom conditions leave some
leaves short of the target, with the diy Power two-thread and extended
families.  ``arm-llh`` enforces the second SC PER LOCATION variant, so
state shared across variants would show.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.campaign.context import ContextCache
from repro.diy.families import extended_family, two_thread_family
from repro.herd.simulator import Simulator
from repro.litmus.registry import entries, get_test

MODELS = ("sc", "tso", "power", "arm", "arm-llh")

CORPUS = (
    [get_test(entry.name) for entry in entries()]
    + two_thread_family("power")
    + extended_family("power")
)
PLANNED = {model: Simulator(model) for model in MODELS}
NAIVE = {model: Simulator(model, engine="naive") for model in MODELS}
CHECKS = {"calls": 0}


def _counting(check):
    def counted(*args, **kwargs):
        CHECKS["calls"] += 1
        return check(*args, **kwargs)

    return counted


for _simulator in PLANNED.values():
    _simulator.model.check = _counting(_simulator.model.check)


def _counted(model, test, context=None):
    """A verdict run, with the ``engine.*``/``herd.*`` counters it
    published and the number of model checks it ran."""
    previous = telemetry._swap(telemetry.Metrics())
    checks = CHECKS["calls"]
    try:
        result = PLANNED[model].run(test, until="target", context=context)
        counters = telemetry.active().snapshot().counters
    finally:
        telemetry._swap(previous)
    counters = {
        name: value
        for name, value in counters.items()
        if name.startswith(("engine.", "herd."))
    }
    counters["checks"] = CHECKS["calls"] - checks
    return result, counters


@given(
    picks=st.lists(st.integers(0, len(CORPUS) - 1), min_size=1, max_size=3),
    order=st.permutations(MODELS),
)
@settings(deadline=None)
def test_models_share_one_verdict_walk(picks, order):
    cache = ContextCache()
    for pick in picks:
        test = CORPUS[pick]
        context = cache.get(test)
        for model in order:
            shared, shared_counters = _counted(model, test, context)
            alone, alone_counters = _counted(model, test)
            assert shared.to_dict() == alone.to_dict(), (test.name, model)
            assert shared_counters == alone_counters, (test.name, model)
            assert shared.verdict == NAIVE[model].verdict(test), (test.name, model)
