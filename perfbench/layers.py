"""The traced run: spans around calls into each layer, from outside ``src/``.

Nothing in the package is edited.  While :func:`instrumented` is active,
the seams below record spans into one in-memory :class:`Tracer`:

* ``litmus.semantics.paths`` / ``herd.enumerate.context`` /
  ``herd.plan.build`` — a :class:`~repro.campaign.context.SimulationContext`
  subclass overriding ``combinations``, ``context`` and ``plan``.  It is
  installed as the class ``ContextCache`` builds, so a ``Session`` hands
  it to ``Simulator.run`` as ``context=`` on the usual path;
* ``herd.walk`` — each ``next()`` of a plan's ``leaves()`` generator;
* ``core.model.check`` — a wrapper on each resolved ``Model`` instance's
  ``check``;
* ``core.model.ppo`` / ``fences`` / ``prop`` — the instance's
  architecture swapped for ``dataclasses.replace(arch, ppo_fn=…, …)``;
* ``core.axioms.*`` — the ``repro.core.axioms.check_*`` module functions;
* ``herd.run`` — ``Simulator.run``; its self time is the outcome
  aggregation left once the layers above are taken out;
* ``session.query`` — the benchmark's own call into ``Session``; its self
  time is the session's per-query overhead (fingerprint, cache lookup).

A span's self time is its duration minus the time of the spans it
encloses.  The self times of all spans should add up to the wall time of
the traced stretch; what they miss is time spent outside every span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, Iterator, List

#: How far the self times may stray from the traced wall time (a share).
SELF_TIME_TOLERANCE = 0.01


class Tracer:
    """Spans kept in memory as ``[name, parent index, start, end]``."""

    def __init__(self):
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: time in the cyclic garbage collector (it runs inside the spans).
        self.gc_s = 0.0
        self._gc_start = 0.0
        self._open: List[int] = []
        self._child_s: List[float] = []

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self._child_s.append(0.0)
        self.spans.append([name, parent, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        span = self.spans[self._open.pop()]
        span[3] = end
        duration = end - span[2]
        self.self_s[span[0]] += duration - self._child_s.pop()
        self.inclusive_s[span[0]] += duration
        if self._child_s:
            self._child_s[-1] += duration

    def timed(self, name: str, function):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def on_gc(self, phase: str, info) -> None:
        """A ``gc.callbacks`` hook timing the collections inside spans."""
        if not self._open:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.counts["runtime.gc.collections"] += 1

    def self_time_gap(self, wall_s: float) -> float:
        """``|sum of self times - wall_s| / wall_s``, for the wall time of
        the traced stretch."""
        return abs(sum(self.self_s.values()) - wall_s) / wall_s

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip), parents by index."""
        with gzip.open(path, "wt") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": index, "name": name, "parent": parent,
                                "start": start, "end": end}) + "\n"
                )

    # -- per-layer metrics ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> Dict[str, tuple]:
        s, c = self.self_s, self.counts
        checks = c["core.model.checks"]
        grid = c["herd.walk.grid"]
        lookups = c["campaign.context.lookups"]
        return {
            "litmus.semantics.paths_s": (s["litmus.semantics.paths"], "s"),
            "litmus.semantics.paths": (c["litmus.semantics.paths"], "count"),
            "litmus.semantics.combinations": (c["litmus.semantics.combinations"], "count"),
            "herd.enumerate.context_s": (s["herd.enumerate.context"], "s"),
            "herd.enumerate.contexts": (c["herd.enumerate.contexts"], "count"),
            "herd.enumerate.events": (c["herd.enumerate.events"], "count"),
            "herd.enumerate.co_orders": (c["herd.enumerate.co_orders"], "count"),
            "herd.plan.build_s": (s["herd.plan.build"], "s"),
            "herd.plan.plans": (c["herd.plan.plans"], "count"),
            "herd.plan.skipped_by_target": (
                c["herd.plan.yielded"] - c["herd.walk.walks"], "count"),
            "herd.walk_s": (s["herd.walk"], "s"),
            "herd.walk.leaves": (c["herd.walk.leaves"], "count"),
            "herd.walk.grid": (grid, "count"),
            "herd.walk.steps": (c["herd.walk.steps"], "count"),
            "herd.walk.leaf_yield": (c["herd.walk.leaves"] / grid if grid else 0.0, "ratio"),
            # The whole model check; the ppo/fences/prop/axiom times below
            # are its parts (self times, like every other *_s here).
            "core.model.check_s": (self.inclusive_s["core.model.check"], "s"),
            "core.model.checks": (checks, "count"),
            "core.model.allowed_share": (
                c["core.model.allowed"] / checks if checks else 0.0, "ratio"),
            "core.model.ppo_s": (s["core.model.ppo"], "s"),
            "core.model.fences_s": (s["core.model.fences"], "s"),
            "core.model.prop_s": (s["core.model.prop"], "s"),
            "core.axioms.no_thin_air_s": (s["core.axioms.no_thin_air"], "s"),
            "core.axioms.observation_s": (s["core.axioms.observation"], "s"),
            "core.axioms.propagation_s": (s["core.axioms.propagation"], "s"),
            "herd.simulator.aggregate_s": (s["herd.run"], "s"),
            "session.query_s": (s["session.query"], "s"),
            "campaign.context.hit_rate": (
                c["campaign.context.hits"] / lookups if lookups else 0.0, "ratio"),
            "runtime.gc_s": (self.gc_s, "s"),
            "runtime.gc.collections": (c["runtime.gc.collections"], "count"),
            "trace.total_s": (wall_s, "s"),
            "trace.self_time_gap": (self.self_time_gap(wall_s), "share"),
        }


def _traced_context_class(tracer: Tracer, base):
    class TracedContext(base):
        """A :class:`SimulationContext` that times its lazy builds."""

        def combinations(self):
            if self._combinations is not None:
                return self._combinations
            tracer.enter("litmus.semantics.paths")
            try:
                combinations = super().combinations()
            finally:
                tracer.exit()
            tracer.counts["litmus.semantics.paths"] += sum(map(len, self._paths))
            tracer.counts["litmus.semantics.combinations"] += len(combinations)
            return combinations

        def context(self, index):
            context = self._contexts.get(index)
            if context is not None:
                return context
            tracer.enter("herd.enumerate.context")
            try:
                context = super().context(index)
            finally:
                tracer.exit()
            tracer.counts["herd.enumerate.contexts"] += 1
            tracer.counts["herd.enumerate.events"] += len(context.all_events)
            tracer.counts["herd.enumerate.co_orders"] += sum(map(len, context.co_orders))
            return context

        def plan(self, variant, index, engine="pruning"):
            plan = self._plans.get((engine, variant, index))
            if plan is None:
                tracer.enter("herd.plan.build")
                try:
                    plan = super().plan(variant, index, engine)
                finally:
                    tracer.exit()
                tracer.counts["herd.plan.plans"] += 1
                leaves = plan.leaves
                plan.leaves = lambda with_outcomes=True: _traced_walk(
                    tracer, plan, leaves(with_outcomes)
                )
            tracer.counts["herd.plan.yielded"] += 1
            return plan

    return TracedContext


def _traced_walk(tracer: Tracer, plan, leaves) -> Iterator:
    """Time each ``next()`` of a plan walk; count leaves, grid and steps."""
    counts = tracer.counts
    counts["herd.walk.walks"] += 1
    counts["herd.walk.grid"] += plan.total
    yielded = 0
    try:
        while True:
            tracer.enter("herd.walk")
            try:
                leaf = next(leaves)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yielded += 1
            yield leaf
    finally:
        leaves.close()  # publishes the walk statistics
        counts["herd.walk.leaves"] += yielded
        if hasattr(plan, "co_orders_tried"):
            counts["herd.walk.steps"] += plan.co_orders_tried
        elif not getattr(plan, "_bench_steps_counted", False):
            # The optimal engine solves a plan once and reuses it.
            plan._bench_steps_counted = True
            counts["herd.walk.steps"] += plan.extension_steps


def instrument_model(tracer: Tracer, model) -> None:
    """Time one resolved model's ``check`` and its architecture functions."""
    check = model.check

    def timed_check(*args, **kwargs):
        tracer.enter("core.model.check")
        try:
            result = check(*args, **kwargs)
        finally:
            tracer.exit()
        tracer.counts["core.model.checks"] += 1
        tracer.counts["core.model.allowed"] += result.allowed
        return result

    model.check = timed_check
    arch = model.architecture
    model.architecture = dataclasses.replace(
        arch,
        ppo_fn=tracer.timed("core.model.ppo", arch.ppo_fn),
        fences_fn=tracer.timed("core.model.fences", arch.fences_fn),
        prop_fn=tracer.timed("core.model.prop", arch.prop_fn),
    )


@contextlib.contextmanager
def _patched(owner, name: str, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the module- and class-level seams for the ``with`` block.

    Sessions created inside the block build traced contexts; their models
    still need :func:`instrument_model` once resolved.
    """
    from repro.campaign import context as context_module
    from repro.core import axioms
    from repro.herd.simulator import Simulator

    original_get = context_module.ContextCache.get

    def counted_get(cache, test):
        hits = cache.hits
        context = original_get(cache, test)
        tracer.counts["campaign.context.lookups"] += 1
        tracer.counts["campaign.context.hits"] += cache.hits - hits
        return context

    traced = _traced_context_class(tracer, context_module.SimulationContext)
    with contextlib.ExitStack() as stack:
        gc.callbacks.append(tracer.on_gc)
        stack.callback(gc.callbacks.remove, tracer.on_gc)
        stack.enter_context(_patched(context_module, "SimulationContext", traced))
        stack.enter_context(_patched(context_module.ContextCache, "get", counted_get))
        stack.enter_context(
            _patched(Simulator, "run", tracer.timed("herd.run", Simulator.run))
        )
        for name in ("no_thin_air", "observation", "propagation"):
            function = f"check_{name}"
            stack.enter_context(
                _patched(
                    axioms, function,
                    tracer.timed(f"core.axioms.{name}", getattr(axioms, function)),
                )
            )
        yield tracer
