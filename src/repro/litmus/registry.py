"""The named litmus tests of the paper and their documented verdicts.

Every figure of Sections 4-8 that depicts a litmus test is represented
here, either as a diy cycle (the common case) or as an explicit builder
program (the coherence tests of Fig. 6 and the anomaly tests of
Sec. 8.1.2 whose shapes do not fit the simple critical-cycle vocabulary).

Each entry records the *expected verdicts* stated by the paper —
``"Allow"`` or ``"Forbid"`` for the test's target outcome under the
relevant models — which the test-suite and the figure benchmark check
against the herd simulator's output.

Notes on reconstructions: ``mp+lwsync+addr-po-detour`` (Fig. 36) is
reconstructed from the prose (the discriminating feature is the
``addr;po`` chain on the observer thread plus a detour-supplying third
thread); the verdict pattern — allowed by this paper's Power model,
forbidden by the PLDI-2011 model — is what matters for Tab. I and
Sec. 8.2 and is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.diy.cycles import Cycle, coe, coi, dep, fenced, fre, fri, po, rfe, rfi
from repro.diy.generator import generate_test
from repro.litmus.ast import LitmusTest, TestBuilder

ALLOW = "Allow"
FORBID = "Forbid"


@dataclass(frozen=True)
class RegistryEntry:
    """One named test: how to build it, where it appears, what the paper says."""

    name: str
    factory: Callable[[], LitmusTest]
    figure: str
    expectations: Mapping[str, str]
    description: str = ""

    def build(self) -> LitmusTest:
        test = self.factory()
        test.name = self.name
        return test


_REGISTRY: Dict[str, RegistryEntry] = {}


def _register(
    name: str,
    factory: Callable[[], LitmusTest],
    figure: str,
    expectations: Mapping[str, str],
    description: str = "",
) -> None:
    if name in _REGISTRY:
        raise ValueError(f"duplicate registry entry {name!r}")
    _REGISTRY[name] = RegistryEntry(
        name=name,
        factory=factory,
        figure=figure,
        expectations=dict(expectations),
        description=description,
    )


def _cycle(edges, arch: str = "power") -> Callable[[], LitmusTest]:
    def factory() -> LitmusTest:
        return generate_test(Cycle.of(list(edges)), arch=arch)

    return factory


# ---------------------------------------------------------------------------
# Fig. 6 — the five SC-per-location tests
# ---------------------------------------------------------------------------

def _cow_w() -> LitmusTest:
    builder = TestBuilder("coWW", arch="power", doc="Fig. 6: two po-ordered writes")
    t0 = builder.thread()
    t0.store("x", 1)
    t0.store("x", 2)
    builder.exists({"x": 1})
    return builder.build()


def _co_rw1() -> LitmusTest:
    builder = TestBuilder("coRW1", arch="power", doc="Fig. 6: read from po-later write")
    t0 = builder.thread()
    r1 = t0.load("x")
    t0.store("x", 1)
    builder.exists({(0, r1): 1})
    return builder.build()


def _co_rw2() -> LitmusTest:
    builder = TestBuilder("coRW2", arch="power", doc="Fig. 6: coRW2")
    t0 = builder.thread()
    r1 = t0.load("x")
    t0.store("x", 1)
    t1 = builder.thread()
    t1.store("x", 2)
    builder.exists({(0, r1): 2, "x": 2})
    return builder.build()


def _co_wr() -> LitmusTest:
    builder = TestBuilder("coWR", arch="power", doc="Fig. 6: coWR")
    t0 = builder.thread()
    t0.store("x", 1)
    r2 = t0.load("x")
    t1 = builder.thread()
    t1.store("x", 2)
    builder.exists({(0, r2): 2, "x": 1})
    return builder.build()


def _co_rr() -> LitmusTest:
    builder = TestBuilder("coRR", arch="power", doc="Fig. 6: load-load hazard")
    t0 = builder.thread()
    r1 = t0.load("x")
    r2 = t0.load("x")
    t1 = builder.thread()
    t1.store("x", 1)
    builder.exists({(0, r1): 1, (0, r2): 0})
    return builder.build()


_ALL_FORBID = {
    "sc": FORBID,
    "tso": FORBID,
    "power": FORBID,
    "arm": FORBID,
    "power-arm": FORBID,
    "pldi2011": FORBID,
}

_register("coWW", _cow_w, "Fig. 6", _ALL_FORBID)
_register("coRW1", _co_rw1, "Fig. 6", _ALL_FORBID)
_register("coRW2", _co_rw2, "Fig. 6", _ALL_FORBID)
_register("coWR", _co_wr, "Fig. 6", _ALL_FORBID)
_register(
    "coRR",
    _co_rr,
    "Fig. 6",
    {**_ALL_FORBID, "arm-llh": ALLOW},
    "Load-load hazard: officially a bug on ARM Cortex-A9 (Sec. 8.1.2).",
)


# ---------------------------------------------------------------------------
# Two-thread classics (Figs. 7, 8, 13(a), 14, 16, 39)
# ---------------------------------------------------------------------------

_register(
    "lb",
    _cycle([po("R", "W"), rfe(), po("R", "W"), rfe()]),
    "Fig. 7",
    {"sc": FORBID, "tso": FORBID, "power": ALLOW, "arm": ALLOW},
    "Load buffering without dependencies.",
)
_register(
    "lb+addrs",
    _cycle([dep("addr", "W"), rfe(), dep("addr", "W"), rfe()]),
    "Fig. 7",
    {"power": FORBID, "arm": FORBID, "power-arm": FORBID},
    "lb+ppos: NO THIN AIR.",
)
_register(
    "lb+datas",
    _cycle([dep("data", "W"), rfe(), dep("data", "W"), rfe()]),
    "Fig. 7",
    {"power": FORBID, "arm": FORBID},
)
_register(
    "lb+ctrls",
    _cycle([dep("ctrl", "W"), rfe(), dep("ctrl", "W"), rfe()]),
    "Fig. 7",
    {"power": FORBID, "arm": FORBID},
)
_register(
    "lb+po+addr",
    _cycle([po("R", "W"), rfe(), dep("addr", "W"), rfe()]),
    "Fig. 7",
    {"power": ALLOW, "arm": ALLOW},
    "One unordered side makes lb observable again.",
)

_register(
    "mp",
    _cycle([po("W", "W"), rfe(), po("R", "R"), fre()]),
    "Fig. 1/8",
    {"sc": FORBID, "tso": FORBID, "power": ALLOW, "arm": ALLOW, "cpp-ra": FORBID},
    "Message passing without fences or dependencies.",
)
_register(
    "mp+lwsync+addr",
    _cycle([fenced("lwsync", "W", "W"), rfe(), dep("addr", "R"), fre()]),
    "Fig. 8",
    {"power": FORBID, "pldi2011": FORBID},
    "mp+lwfence+ppo: OBSERVATION.",
)
_register(
    "mp+lwsync+po",
    _cycle([fenced("lwsync", "W", "W"), rfe(), po("R", "R"), fre()]),
    "Fig. 8",
    {"power": ALLOW, "arm": ALLOW},
)
_register(
    "mp+addrs",
    _cycle([po("W", "W"), rfe(), dep("addr", "R"), fre()]),
    "Fig. 8",
    {"power": ALLOW, "arm": ALLOW},
    "No fence on the writer: Alpha-style reordering remains possible.",
)
_register(
    "mp+lwsync+ctrl",
    _cycle([fenced("lwsync", "W", "W"), rfe(), dep("ctrl", "R"), fre()]),
    "Sec. 5.2.3",
    {"power": ALLOW, "arm": ALLOW},
    "A control dependency to a read does not order reads.",
)
_register(
    "mp+lwsync+ctrlisync",
    _cycle([fenced("lwsync", "W", "W"), rfe(), dep("ctrlisync", "R"), fre()]),
    "Sec. 5.2.4",
    {"power": FORBID},
)
_register(
    "mp+sync+addr",
    _cycle([fenced("sync", "W", "W"), rfe(), dep("addr", "R"), fre()]),
    "Fig. 8",
    {"power": FORBID},
)
_register(
    "mp+syncs",
    _cycle([fenced("sync", "W", "W"), rfe(), fenced("sync", "R", "R"), fre()]),
    "Fig. 8",
    {"power": FORBID},
)
_register(
    "mp+dmb+addr",
    _cycle([fenced("dmb", "W", "W"), rfe(), dep("addr", "R"), fre()], arch="arm"),
    "Fig. 8",
    {"arm": FORBID, "power-arm": FORBID, "arm-llh": FORBID},
)
_register(
    "mp+dmb+ctrlisb",
    _cycle([fenced("dmb", "W", "W"), rfe(), dep("ctrlisb", "R"), fre()], arch="arm"),
    "Fig. 8",
    {"arm": FORBID, "power-arm": FORBID, "arm-llh": FORBID},
)
_register(
    "mp+dmbs",
    _cycle([fenced("dmb", "W", "W"), rfe(), fenced("dmb", "R", "R"), fre()], arch="arm"),
    "Fig. 8",
    {"arm": FORBID, "power-arm": FORBID},
)

_register(
    "sb",
    _cycle([po("W", "R"), fre(), po("W", "R"), fre()]),
    "Fig. 14",
    {"sc": FORBID, "tso": ALLOW, "power": ALLOW, "arm": ALLOW, "cpp-ra": ALLOW},
    "Store buffering: the canonical relaxed behaviour.",
)
_register(
    "sb+mfences",
    _cycle([fenced("mfence", "W", "R"), fre(), fenced("mfence", "W", "R"), fre()], arch="x86"),
    "Fig. 14",
    {"tso": FORBID},
)
_register(
    "sb+syncs",
    _cycle([fenced("sync", "W", "R"), fre(), fenced("sync", "W", "R"), fre()]),
    "Fig. 14",
    {"power": FORBID},
)
_register(
    "sb+lwsyncs",
    _cycle([fenced("lwsync", "W", "R"), fre(), fenced("lwsync", "W", "R"), fre()]),
    "Fig. 14",
    {"power": ALLOW},
    "lwsync does not order write-read pairs.",
)
_register(
    "sb+dmbs",
    _cycle([fenced("dmb", "W", "R"), fre(), fenced("dmb", "W", "R"), fre()], arch="arm"),
    "Fig. 14",
    {"arm": FORBID, "power-arm": FORBID},
)

_register(
    "2+2w",
    _cycle([po("W", "W"), coe(), po("W", "W"), coe()]),
    "Fig. 13(a)",
    {"sc": FORBID, "tso": FORBID, "power": ALLOW, "arm": ALLOW, "cpp-ra": ALLOW},
)
_register(
    "2+2w+lwsyncs",
    _cycle([fenced("lwsync", "W", "W"), coe(), fenced("lwsync", "W", "W"), coe()]),
    "Fig. 13(a)",
    {"power": FORBID},
    "Coherence and lightweight fences interact (PROPAGATION).",
)

_register(
    "r",
    _cycle([po("W", "W"), coe(), po("W", "R"), fre()]),
    "Fig. 16",
    {"sc": FORBID, "power": ALLOW, "arm": ALLOW},
)
_register(
    "r+syncs",
    _cycle([fenced("sync", "W", "W"), coe(), fenced("sync", "W", "R"), fre()]),
    "Fig. 16",
    {"power": FORBID},
)
_register(
    "r+lwsync+sync",
    _cycle([fenced("lwsync", "W", "W"), coe(), fenced("sync", "W", "R"), fre()]),
    "Fig. 16",
    {"power": ALLOW},
    "Allowed by this model, against earlier models; unobserved on hardware.",
)

_register(
    "s",
    _cycle([po("W", "W"), rfe(), po("R", "W"), coe()]),
    "Fig. 39",
    {"sc": FORBID, "power": ALLOW, "arm": ALLOW},
)
_register(
    "s+lwsync+data",
    _cycle([fenced("lwsync", "W", "W"), rfe(), dep("data", "W"), coe()]),
    "Fig. 16",
    {"power": FORBID},
    "s+lwfence+ppo.",
)


# ---------------------------------------------------------------------------
# Three- and four-thread classics (Figs. 11, 12, 13(b), 15, 19, 20)
# ---------------------------------------------------------------------------

_register(
    "wrc",
    _cycle([rfe(), po("R", "W"), rfe(), po("R", "R"), fre()]),
    "Fig. 11",
    {"sc": FORBID, "tso": FORBID, "power": ALLOW, "arm": ALLOW},
)
_register(
    "wrc+lwsync+addr",
    _cycle([rfe(), fenced("lwsync", "R", "W"), rfe(), dep("addr", "R"), fre()]),
    "Fig. 11",
    {"power": FORBID},
    "A-cumulativity of lwsync.",
)
_register(
    "wrc+addrs",
    _cycle([rfe(), dep("addr", "W"), rfe(), dep("addr", "R"), fre()]),
    "Fig. 11",
    {"power": ALLOW, "arm": ALLOW},
    "Dependencies alone are not cumulative.",
)

_register(
    "isa2",
    _cycle([po("W", "W"), rfe(), po("R", "W"), rfe(), po("R", "R"), fre()]),
    "Fig. 12",
    {"sc": FORBID, "power": ALLOW, "arm": ALLOW},
)
_register(
    "isa2+lwsync+addrs",
    _cycle(
        [fenced("lwsync", "W", "W"), rfe(), dep("addr", "W"), rfe(), dep("addr", "R"), fre()]
    ),
    "Fig. 12",
    {"power": FORBID},
    "B-cumulativity of lwsync (isa2+lwfence+ppos).",
)

_register(
    "w+rw+2w",
    _cycle([rfe(), po("R", "W"), coe(), po("W", "W"), coe()]),
    "Fig. 13(b)",
    {"power": ALLOW, "arm": ALLOW},
)
_register(
    "w+rw+2w+lwsyncs",
    _cycle([rfe(), fenced("lwsync", "R", "W"), coe(), fenced("lwsync", "W", "W"), coe()]),
    "Fig. 13(b)",
    {"power": FORBID},
)

_register(
    "rwc",
    _cycle([rfe(), po("R", "R"), fre(), po("W", "R"), fre()]),
    "Fig. 15",
    {"sc": FORBID, "power": ALLOW, "arm": ALLOW},
)
_register(
    "rwc+syncs",
    _cycle([rfe(), fenced("sync", "R", "R"), fre(), fenced("sync", "W", "R"), fre()]),
    "Fig. 15",
    {"power": FORBID},
    "Strong A-cumulativity of the full fence.",
)

_register(
    "w+rwc+eieio+addr+sync",
    _cycle(
        [fenced("eieio", "W", "W"), rfe(), dep("addr", "R"), fre(), fenced("sync", "W", "R"), fre()]
    ),
    "Fig. 19",
    {"power": ALLOW},
    "Shows eieio cannot be a full barrier (observed on Power 6/7).",
)
_register(
    "w+rwc+sync+addr+sync",
    _cycle(
        [fenced("sync", "W", "W"), rfe(), dep("addr", "R"), fre(), fenced("sync", "W", "R"), fre()]
    ),
    "Fig. 19",
    {"power": FORBID},
    "The same pattern with a full fence instead of eieio is forbidden.",
)

_register(
    "iriw",
    _cycle([rfe(), po("R", "R"), fre(), rfe(), po("R", "R"), fre()]),
    "Fig. 20",
    {"sc": FORBID, "tso": FORBID, "power": ALLOW, "arm": ALLOW},
)
_register(
    "iriw+syncs",
    _cycle([rfe(), fenced("sync", "R", "R"), fre(), rfe(), fenced("sync", "R", "R"), fre()]),
    "Fig. 20",
    {"power": FORBID},
)
_register(
    "iriw+lwsyncs",
    _cycle([rfe(), fenced("lwsync", "R", "R"), fre(), rfe(), fenced("lwsync", "R", "R"), fre()]),
    "Fig. 20",
    {"power": ALLOW},
    "Lightweight fences are not enough for iriw.",
)
_register(
    "iriw+addrs",
    _cycle([rfe(), dep("addr", "R"), fre(), rfe(), dep("addr", "R"), fre()]),
    "Fig. 20",
    {"power": ALLOW, "arm": ALLOW},
)
_register(
    "iriw+dmbs",
    _cycle([rfe(), fenced("dmb", "R", "R"), fre(), rfe(), fenced("dmb", "R", "R"), fre()], arch="arm"),
    "Fig. 20",
    {"arm": FORBID, "power-arm": FORBID},
    "dmb is a full fence.",
)


# ---------------------------------------------------------------------------
# Early-commit / fri-rfi behaviours (Figs. 32, 33) and Power ppo subtleties
# ---------------------------------------------------------------------------

_register(
    "mp+dmb+fri-rfi-ctrlisb",
    _cycle(
        [fenced("dmb", "W", "W"), rfe(), fri(), rfi(), dep("ctrlisb", "R"), fre()], arch="arm"
    ),
    "Fig. 32",
    {"power-arm": FORBID, "arm": ALLOW, "arm-llh": ALLOW},
    "Observed on APQ8060; desirable per ARM designers; motivates removing po-loc from cc0.",
)
_register(
    "lb+data+fri-rfi-ctrl",
    _cycle([dep("data", "W"), rfe(), fri(), rfi(), dep("ctrl", "W"), rfe()], arch="arm"),
    "Fig. 33",
    {"power-arm": FORBID, "arm": ALLOW},
)
_register(
    "s+dmb+fri-rfi-data",
    _cycle([fenced("dmb", "W", "W"), rfe(), fri(), rfi(), dep("data", "W"), coe()], arch="arm"),
    "Fig. 33",
    {"power-arm": FORBID, "arm": ALLOW},
)
_register(
    "lb+data+data-wsi-rfi-addr",
    _cycle(
        [dep("data", "W"), rfe(), dep("data", "W"), coi(), rfi(), dep("addr", "W"), rfe()],
        arch="arm",
    ),
    "Fig. 33",
    {"power-arm": FORBID, "arm": ALLOW},
)

_register(
    "lb+addrs+ww",
    _cycle([dep("addr", "W"), po("W", "W"), rfe(), dep("addr", "W"), po("W", "W"), rfe()]),
    "Fig. 29",
    {"power": FORBID, "arm": FORBID},
    "addr;po reaches the ppo through cc0.",
)
_register(
    "lb+datas+ww",
    _cycle([dep("data", "W"), po("W", "W"), rfe(), dep("data", "W"), po("W", "W"), rfe()]),
    "Fig. 29",
    {"power": ALLOW, "arm": ALLOW},
    "data;po is not in cc0: the same shape with data dependencies is allowed.",
)


def _mp_lwsync_addr_po() -> LitmusTest:
    builder = TestBuilder(
        "mp+lwsync+addr-po",
        arch="power",
        doc="Observer orders its reads through addr;po only (allowed by this model).",
    )
    t0 = builder.thread()
    t0.store("x", 2)
    t0.fence("lwsync")
    t0.store("y", 1)
    t1 = builder.thread()
    r1 = t1.load("y")
    r2 = t1.load_addr_dep("z", dep_on=r1)
    r3 = t1.load("x")
    builder.exists({(1, r1): 1, (1, r2): 0, (1, r3): 0})
    return builder.build()


def _mp_lwsync_addr_po_detour() -> LitmusTest:
    builder = TestBuilder(
        "mp+lwsync+addr-po-detour",
        arch="power",
        doc=(
            "Reconstruction of Fig. 36: addr;po chain on the observer plus a "
            "detour-supplying third thread; allowed by this model, forbidden by "
            "the PLDI 2011 model, observed on Power hardware."
        ),
    )
    t0 = builder.thread()
    t0.store("x", 2)
    t0.fence("lwsync")
    t0.store("y", 1)
    t1 = builder.thread()
    r1 = t1.load("y")
    r2 = t1.load_addr_dep("z", dep_on=r1)
    r3 = t1.load("x")
    t2 = builder.thread()
    t2.store("x", 1)
    r4 = t2.load("x")
    builder.exists({(1, r1): 1, (1, r2): 0, (1, r3): 0, (2, r4): 2, "x": 2})
    return builder.build()


_register(
    "mp+lwsync+addr-po",
    _mp_lwsync_addr_po,
    "Fig. 36 (core)",
    {"power": ALLOW, "pldi2011": FORBID},
)
_register(
    "mp+lwsync+addr-po-detour",
    _mp_lwsync_addr_po_detour,
    "Fig. 36",
    {"power": ALLOW, "pldi2011": FORBID},
    "The experimental flaw of the PLDI 2011 model (Tab. I).",
)


def _mp_dmb_pos_ctrlisb_bis() -> LitmusTest:
    builder = TestBuilder(
        "mp+dmb+pos-ctrlisb+bis",
        arch="arm",
        doc="Fig. 35: mp+dmb+ctrlisb with an extra same-location read and an extra writer.",
    )
    t0 = builder.thread()
    t0.store("x", 1)
    t0.fence("dmb")
    t0.store("y", 1)
    t1 = builder.thread()
    r1 = t1.load("y")
    r2 = t1.load("y")
    r3 = t1.load_ctrl_dep("x", dep_on=r2, cfence="isb")
    t2 = builder.thread()
    t2.store("y", 2)
    builder.exists({(1, r1): 1, (1, r2): 1, (1, r3): 0, "y": 2})
    return builder.build()


_register(
    "mp+dmb+pos-ctrlisb+bis",
    _mp_dmb_pos_ctrlisb_bis,
    "Fig. 35",
    {"arm": FORBID, "power-arm": FORBID},
    "Its observation on Tegra3 is a violation of OBSERVATION (hardware anomaly).",
)


# ---------------------------------------------------------------------------
# Public accessors
# ---------------------------------------------------------------------------

def entries() -> Tuple[RegistryEntry, ...]:
    """All registry entries, in registration (paper) order."""
    return tuple(_REGISTRY.values())


def names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def get_entry(name: str) -> RegistryEntry:
    if name not in _REGISTRY:
        raise KeyError(f"unknown litmus test {name!r}")
    return _REGISTRY[name]


def get_test(name: str) -> LitmusTest:
    """Build the named litmus test."""
    return get_entry(name).build()


def all_tests() -> List[LitmusTest]:
    return [entry.build() for entry in entries()]

