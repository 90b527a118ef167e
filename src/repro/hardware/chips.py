"""Simulated Power and ARM chips.

Each chip is described by an implementation model (what the pipeline and
memory system actually do) plus errata (behaviours outside that model
that appear rarely).  The populations mirror Sec. 8.1:

=============  =======  ===========================================================
chip           family   behaviour
=============  =======  ===========================================================
Power G5/6/7   power    architectural Power model minus read-to-write reordering
                        (load-buffering behaviours are allowed but "not yet
                        implemented", hence unseen — Sec. 8.1.1)
Tegra2/3       arm      conservative ARM (no early commit); load-load hazard
                        erratum; Tegra3 additionally exhibits OBSERVATION
                        violations (Fig. 34/35)
APQ8060/8064   arm      proposed ARM model (early-commit behaviours of Fig. 32/33
                        are features); load-load hazard erratum
Exynos, A5X,   arm      conservative ARM with the load-load hazard erratum
A6X
=============  =======  ===========================================================
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.architectures import (
    arm_architecture,
    arm_llh_architecture,
    power_architecture,
    power_arm_architecture,
)
from repro.core.execution import Execution
from repro.core.model import Architecture, CheckResult, Model
from repro.core.relation import Relation
from repro.herd.simulator import Simulator
from repro.litmus.ast import LitmusTest


# ---------------------------------------------------------------------------
# Implementation models
# ---------------------------------------------------------------------------

def _ppo_without_rw_reordering(base_ppo, execution: Execution) -> Relation:
    return base_ppo(execution) | execution.restrict_rw(execution.po)


def _strengthen_no_rw_reordering(base: Architecture, name: str) -> Architecture:
    """An implementation that never reorders a read with a po-later write.

    This is how we model "architecturally allowed but not implemented":
    load-buffering (lb) behaviours disappear, matching the Power
    observations of Sec. 8.1.1 and the conservative ARM implementations.
    The ppo is a partial of a module-level function, not a closure, so
    the implementation (and every chip built on it) pickles.
    """
    return Architecture(
        name=name,
        ppo_fn=functools.partial(_ppo_without_rw_reordering, base.ppo_fn),
        fences_fn=base.fences_fn,
        prop_fn=base.prop_fn,
        ffence_fn=base.ffence_fn,
        sc_per_location_variant=base.sc_per_location_variant,
        propagation_variant=base.propagation_variant,
        description=f"{base.description} (implementation: no R->W reordering)",
    )


class _NoObservationModel:
    """An erratum model: ARM with broken write-propagation tracking.

    Used to simulate the Tegra3 anomalies of Fig. 34/35, where behaviours
    that OBSERVATION must uncontroversially forbid (mp+dmb+ctrlisb
    variants with extra same-location accesses) were nonetheless
    observed.  The erratum keeps SC PER LOCATION (in its llh form) and
    NO THIN AIR, but drops OBSERVATION and weakens the propagation order
    to the plain write-to-write fence ordering — i.e. the chip's
    cumulativity machinery is assumed to misbehave.
    """

    def __init__(self) -> None:
        self._base = arm_llh_architecture()
        self.name = "arm-no-observation"

    def _weak_prop(self, execution: Execution, fences: Relation, hb: Relation) -> Relation:
        hb_star = hb.reflexive_transitive_closure(execution.memory_events)
        prop_base = (fences | execution.rfe.seq(fences)).seq(hb_star)
        return execution.restrict_ww(prop_base)

    def check(self, execution: Execution, stop_at_first: bool = False) -> CheckResult:
        from repro.core import axioms as ax

        arch = self._base
        violations = []
        violation = ax.check_sc_per_location(execution, arch.sc_per_location_variant)
        if violation is not None:
            violations.append(violation)
            if stop_at_first:
                return CheckResult(False, tuple(violations))
        ppo = arch.ppo(execution)
        fences = arch.fences(execution)
        hb = arch.hb(execution, ppo, fences)
        violation = ax.check_no_thin_air(execution, hb)
        if violation is not None:
            violations.append(violation)
            if stop_at_first:
                return CheckResult(False, tuple(violations))
        prop = self._weak_prop(execution, fences, hb)
        violation = ax.check_propagation(execution, prop, arch.propagation_variant)
        if violation is not None:
            violations.append(violation)
        return CheckResult(not violations, tuple(violations))

    def allows(self, execution: Execution) -> bool:
        return self.check(execution, stop_at_first=True).allowed


@dataclass(frozen=True)
class Erratum:
    """A hardware anomaly: extra behaviours beyond the implementation model.

    ``model`` is the (weaker) model whose additional outcomes can be
    observed; ``rate`` is the per-run probability of observing one of
    those outcomes, mirroring the very low frequencies of Tab. VI
    (e.g. the load-load hazard shows up a handful of times per billion
    runs).
    """

    name: str
    model: object
    rate: float
    description: str = ""


@dataclass
class SimulatedChip:
    """One simulated machine."""

    name: str
    family: str  # "power" or "arm"
    implementation: object  # a Model-like object (has .check / .allows)
    errata: Tuple[Erratum, ...] = ()
    description: str = ""

    def observed_outcomes(
        self,
        test: LitmusTest,
        iterations: int = 1_000_000,
        rng: Optional[random.Random] = None,
        context=None,
    ) -> Dict[Tuple[Tuple[str, int], ...], int]:
        """Run a litmus test: outcome -> observation count.

        Outcomes allowed by the implementation model are observed with
        "common" frequencies; erratum outcomes appear with their (low)
        rates and may not show up at all in a given campaign, exactly as
        on real silicon.  ``context`` optionally supplies the test's
        memoized :class:`repro.campaign.SimulationContext` — it is
        model-independent, so one context serves the implementation
        model and every erratum model alike.
        """
        rng = rng if rng is not None else random.Random(hash((self.name, test.name)) & 0xFFFF)
        counts: Dict[Tuple[Tuple[str, int], ...], int] = {}

        base = Simulator(self.implementation).run(test, context=context)
        common = sorted(base.allowed_outcomes)
        if common:
            weights = [rng.random() + 0.1 for _ in common]
            total_weight = sum(weights)
            for outcome, weight in zip(common, weights):
                counts[outcome] = max(1, int(iterations * weight / total_weight))

        for erratum in self.errata:
            extra = Simulator(erratum.model).run(test, context=context)
            rare = sorted(extra.allowed_outcomes - base.allowed_outcomes)
            for outcome in rare:
                expectation = iterations * erratum.rate
                observed = rng.randint(0, max(1, int(2 * expectation)))
                if observed > 0:
                    counts[outcome] = counts.get(outcome, 0) + observed
        return counts

    def observes_target(self, test: LitmusTest, iterations: int = 1_000_000,
                        rng: Optional[random.Random] = None) -> bool:
        """Does the chip ever exhibit the test's target (exists) outcome?"""
        assert test.condition is not None
        for outcome in self.observed_outcomes(test, iterations, rng):
            observed = dict(outcome)
            if all(
                observed.get(
                    f"{atom.thread}:{atom.name}" if atom.kind == "reg" else atom.name
                )
                == atom.value
                for atom in test.condition.atoms
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# Chip populations
# ---------------------------------------------------------------------------

def default_power_chips() -> List[SimulatedChip]:
    """Power G5 / 6 / 7: sound w.r.t. the Power model, lb not implemented."""
    implementation = Model(_strengthen_no_rw_reordering(power_architecture(), "power-impl"))
    return [
        SimulatedChip(
            name=name,
            family="power",
            implementation=implementation,
            errata=(),
            description="IBM Power machine (no anomalies observed, Sec. 8.1.1)",
        )
        for name in ("Power6", "Power7", "PowerG5")
    ]


def default_arm_chips() -> List[SimulatedChip]:
    """The ARM population of Sec. 8.1.2 with its documented anomalies."""
    conservative = Model(_strengthen_no_rw_reordering(power_arm_architecture(), "arm-conservative"))
    # The Qualcomm systems exhibit the early-commit behaviours of Figs. 32/33,
    # which involve read-to-write reordering around forwarded writes; their
    # implementation model is therefore the full proposed ARM model.
    early_commit = Model(arm_architecture())
    # The load-load hazard erratum only relaxes same-location read-read
    # ordering on top of the conservative implementation: it must not leak
    # the early-commit behaviours, which the paper observed on Qualcomm
    # machines only.
    llh_architecture = replace(
        _strengthen_no_rw_reordering(power_arm_architecture(), "arm-conservative-llh"),
        sc_per_location_variant="llh",
    )
    load_load_hazard = Erratum(
        name="load-load-hazard",
        model=Model(llh_architecture),
        rate=1e-4,
        description="coRR violations, acknowledged as a bug by ARM (Sec. 8.1.2)",
    )
    observation_violation = Erratum(
        name="observation-violation",
        model=_NoObservationModel(),
        rate=5e-6,
        description="mp+dmb+ctrlisb-style violations observed on Tegra3 (Fig. 35)",
    )
    chips = [
        SimulatedChip("Tegra2", "arm", conservative, (load_load_hazard,),
                      "NVIDIA Tegra 2 (Cortex-A9)"),
        SimulatedChip("Tegra3", "arm", conservative,
                      (load_load_hazard, observation_violation),
                      "NVIDIA Tegra 3 (Cortex-A9): load-load hazard and OBSERVATION anomalies"),
        SimulatedChip("APQ8060", "arm", early_commit, (load_load_hazard,),
                      "Qualcomm APQ8060: early-commit behaviours of Fig. 32 are features"),
        SimulatedChip("APQ8064", "arm", early_commit, (load_load_hazard,),
                      "Qualcomm APQ8064 (Krait): early-commit behaviours of Fig. 33"),
        SimulatedChip("Exynos4412", "arm", conservative, (load_load_hazard,),
                      "Samsung Exynos 4412 (Cortex-A9)"),
        SimulatedChip("Exynos5250", "arm", conservative, (load_load_hazard,),
                      "Samsung Exynos 5250 (Cortex-A15)"),
        SimulatedChip("A6X", "arm", conservative, (load_load_hazard,),
                      "Apple Swift (A6X)"),
    ]
    return chips


def chip_by_name(name: str) -> SimulatedChip:
    for chip in default_power_chips() + default_arm_chips():
        if chip.name.lower() == name.lower():
            return chip
    raise KeyError(f"unknown chip {name!r}")
