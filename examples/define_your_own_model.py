#!/usr/bin/env python3
"""Define a memory model in the cat language and simulate with it.

herd's defining feature (Sec. 8.3) is that the model is an input: a few
lines of relational definitions turn the tool into a simulator for that
model.  This example

1. loads the shipped ``power.cat`` (the text of Fig. 38) and checks a
   few tests with it,
2. defines a brand-new toy model — "TSO without the write-read
   relaxation", i.e. SC written in the TSO style — and compares it with
   the built-in models,
3. shows how easily a model can be weakened: removing the NO THIN AIR
   check makes load-buffering behaviours appear,
4. sweeps a diy family under ``power.cat`` on two worker processes: a
   cat model shards exactly like a built-in one.

Run with::

    python examples/define_your_own_model.py
"""

import warnings

from repro import Session
from repro.campaign import CampaignPicklingWarning
from repro.cat import load_builtin_model, load_cat_model
from repro.diy import two_thread_family
from repro.herd import simulate
from repro.litmus.registry import get_test

TESTS = ("mp", "mp+lwsync+addr", "sb", "sb+syncs", "lb", "lb+addrs", "2+2w+lwsyncs")


def with_fig38_power() -> None:
    print("== the Power model of Fig. 38, interpreted from power.cat")
    cat_power = load_builtin_model("power")
    for name in TESTS:
        test = get_test(name)
        cat_verdict = simulate(test, cat_power).verdict
        builtin_verdict = simulate(test, "power").verdict
        marker = "==" if cat_verdict == builtin_verdict else "!!"
        print(f"  {name:18s} cat:{cat_verdict:7s} {marker} built-in:{builtin_verdict}")
    print()


STRONG_MODEL = """
strong-tso
(* TSO without the write-read relaxation: every program-order pair is
   preserved, so this is Sequential Consistency in TSO clothing. *)
acyclic po-loc|rf|fr|co as sc-per-location
let ppo = po
let fence = mfence
let hb = ppo|fence|rfe
acyclic hb as no-thin-air
let prop = ppo|fence|rfe|fr
irreflexive fre;prop;hb* as observation
acyclic co|prop as propagation
"""

NO_THIN_AIR_FREE = """
power-without-no-thin-air
(* The Power model with the NO THIN AIR check removed (Sec. 4.9 notes
   that software models such as C++ or Java allow certain lb patterns). *)
acyclic po-loc|rf|fr|co as sc-per-location
let dp = addr|data
let ii0 = dp|rdw|rfi
let ci0 = (ctrl+isync)|detour
let cc0 = dp|po-loc|ctrl|(addr;po)
let rec ii = ii0|ci|(ic;ci)|(ii;ii)
and ic = ii|cc|(ic;cc)|(ii;ic)
and ci = ci0|(ci;ii)|(cc;ci)
and cc = cc0|ci|(ci;ic)|(cc;cc)
let ppo = RR(ii)|RW(ic)
let fence = RM(lwsync)|WW(lwsync)|sync
let hb = ppo|fence|rfe
let prop-base = (fence|(rfe;fence));hb*
let prop = WW(prop-base)|(com*;prop-base*;sync;hb*)
irreflexive fre;prop;hb* as observation
acyclic co|prop as propagation
"""


def with_custom_models() -> None:
    print("== a hand-written strong model vs the built-in ones")
    strong = load_cat_model(STRONG_MODEL, name="strong-tso")
    for name in ("sb", "mp", "iriw"):
        test = get_test(name)
        print(
            f"  {name:6s} strong-tso:{simulate(test, strong).verdict:7s} "
            f"tso:{simulate(test, 'tso').verdict:7s} sc:{simulate(test, 'sc').verdict}"
        )
    print()

    print("== dropping NO THIN AIR makes lb+addrs observable")
    permissive = load_cat_model(NO_THIN_AIR_FREE, name="power-no-thin-air")
    for name in ("lb", "lb+addrs", "mp+lwsync+addr"):
        test = get_test(name)
        print(
            f"  {name:16s} power:{simulate(test, 'power').verdict:7s} "
            f"without-no-thin-air:{simulate(test, permissive).verdict}"
        )
    print()


def sweep_on_workers() -> None:
    print("== power.cat swept over a diy family by two worker processes")
    family = two_thread_family("power", limit=24)
    with warnings.catch_warnings():
        # A model that cannot be pickled would run in-process with this
        # warning; power.cat must reach the workers.
        warnings.simplefilter("error", CampaignPicklingWarning)
        with Session(model=load_builtin_model("power"), processes=2) as session:
            swept = session.sweep(family)
            stats = session.stats()
    assert stats["pool"]["started"], "the sweep did not start the worker pool"
    assert stats["supervisor"]["counters"]["unpicklable_payloads"] == 0
    builtin = Session(model="power").sweep(family)
    assert swept.verdicts == builtin.verdicts, "power.cat disagrees with power"
    allowed = sum(verdict == "Allow" for _, verdict in swept.verdicts)
    print(f"  {len(swept.verdicts)} tests, {allowed} allowed: same as built-in power")
    print()


def main() -> None:
    with_fig38_power()
    with_custom_models()
    sweep_on_workers()


if __name__ == "__main__":
    main()
