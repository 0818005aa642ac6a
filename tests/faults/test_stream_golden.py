"""Golden digests of the fault and churn occurrence streams.

Every bound schedule pre-commits its occurrences to a SHA-256-keyed PRNG
stream, and every trial key, stored record and cross-backend equality
rests on that stream staying put.  These tests pop each schedule through
a fixed plan of nominal polls mixed with idle pull-forwards and hash the
whole popped stream — identity, nominal step, firing ordinal, victims,
assignments, the churn deltas and live-subgraph shape, and the
``info()`` handed to probes — against digests recorded before the
schedule code was last restructured.  A digest change means the streams
changed, not just their implementation.
"""

import hashlib
from random import Random

import pytest

from repro.alliance.fga import FGA
from repro.faults import FaultPlan, parse_churn, parse_schedule
from repro.reset import SDR
from repro.topology import grid, ring
from repro.unison import Unison


def unison_grid():
    return SDR(Unison(grid(3, 3)))


def fga_ring():
    return SDR(FGA(ring(8), 1, 1))


def plan(horizon=60, stride=2):
    """Nominal polls every ``stride`` steps; every third poll is idle."""
    return [(step, i % 3 == 1) for i, step in enumerate(range(0, horizon, stride))]


def digest(bound, fields):
    lines = []
    for step, idle in plan():
        for occ in bound.pop_due(step, idle=idle):
            record = (occ.event, occ.index, occ.step, occ.burst, occ.victims,
                      occ.assignments) + tuple(getattr(occ, f) for f in fields)
            info = bound.info(occ, step=step, moves=3 * step, rounds=step // 4)
            lines.append(repr(record) + "|" + repr(info))
    lines.append(f"fired={bound.fired} exhausted={bound.exhausted}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


FAULT_CASES = {
    "at": (unison_grid, "at=3,k=2"),
    "every-start-count": (unison_grid, "every=5,start=2,count=4"),
    "every-until": (unison_grid, "every=7,start=5,until=40,k=2"),
    "every-unbounded": (unison_grid, "every=6,k=3"),
    "storm": (unison_grid, "storm=10-40,cadence=6,k=3"),
    "burst-overlap-procs": (unison_grid, "burst=4,count=3,gap=9,k=2;at=4,procs=0|3|99"),
    "vars": (unison_grid, "every=4,count=6,k=2,vars=c|d,seed=11"),
    "scope-input-clustered": (unison_grid, "burst=1,count=4,gap=3,k=3,clustered,scope=input"),
    "scope-reset": (unison_grid, "every=4,count=5,k=2,scope=reset,seed=5"),
    "fga-clustered": (fga_ring, "storm=0-30,cadence=5,k=3,clustered;at=12,vars=canQ|ptr"),
}

FAULT_DIGESTS = {
    "at": "8b8dcca500292eec5051ea5c36cfa74f4b07cf81fd05e409a1fc69a166f3d661",
    "burst-overlap-procs": "d4736817780716638293037526c91676db4ac5da36f0c33e741a13f9ad99ac16",
    "every-start-count": "eada8ff4f0718e5db24ddda916cf37b3d5db0c16c2153c5bd93b92b7931b695f",
    "every-unbounded": "694f480dcee1df6cd5ca80ea4f6ceb3c2485cb1bb994dccb872061688336e527",
    "every-until": "18b9afa13653965f7c6ca9ec09dd074a0266282ce5b987d9fc70eceffbddb0f0",
    "fga-clustered": "fbcd50e2456cf59ae94e56a5563e70958f570f09ecf483cc3184d54839bf6a9d",
    "scope-input-clustered": "1796e43d1245997311b0b8c71e45dcf2915dded8e574785570b822c533bb6ad8",
    "scope-reset": "34ed59ee39d0c9ecbf73dbdb23d13cf89211d3516130d47a8cadb1366931873e",
    "storm": "b403e3fa2be3094f79a2039d1538fbac0b4bee3e573c634152defb70f841277a",
    "vars": "7baccb32c6b477e95a10b6d7aa7178b4b70b0ddc42f39324e8eee8460224ca39",
}

CHURN_MIX = ("every=4,count=4,crash=1;burst=6,count=3,gap=5,join=1;"
             "at=9,drop_edge=2;storm=3-30,cadence=7,add_edge=1")

CHURN_CASES = {
    "mix-preserve": (unison_grid, CHURN_MIX),
    "mix-allow": (unison_grid, CHURN_MIX + ";connectivity=allow"),
    "clustered-procs-preserve": (
        fga_ring, "at=2,crash=3,clustered;every=5,count=3,join=2,procs=0|1|2|3;"
                  "burst=8,count=2,gap=9,crash=2"),
    "clustered-procs-allow": (
        fga_ring, "at=2,crash=3,clustered;every=5,count=3,join=2,procs=0|1|2|3;"
                  "burst=8,count=2,gap=9,crash=2;connectivity=allow"),
    "unbounded-preserve": (
        unison_grid, "every=3,crash=1;every=4,start=6,join=1;every=5,drop_edge=1,seed=3"),
    "unbounded-allow": (
        fga_ring, "every=3,crash=2;every=4,join=1;at=8,add_edge=2;"
                  "storm=1-20,cadence=4,drop_edge=1;connectivity=allow"),
}

CHURN_DIGESTS = {
    "clustered-procs-allow": "2a7636334aec990a201e3592e0589ceee155d66329704fd3b69c85b952f06dde",
    "clustered-procs-preserve": "742ff44ec399f0b02a51bc468108038aa56ff313a5b169abac3404b4a1ca7a5a",
    "mix-allow": "c3607d2d467bef1dd79f13725d3c6ec1aa96ec29b13602038ca3e090b289974a",
    "mix-preserve": "4199a42b1dde917a8ae5b3e8e7c8d32bff9514860b846f96055b95212c276639",
    "unbounded-allow": "49d58c41daa72188d93f69eec667ca3874e7bb8eab5b2d6e27136b9b3283da19",
    "unbounded-preserve": "d0a20e52630a2762e4e9c4524201ccb7f8e6fb7fda8582af43ce2b281f50840b",
}

FAULT_PLAN_DIGEST = "6373c7713c276ff3a675cd7531a602a5c5ad0892a80fb0ba38989f5c5629df03"

#: Canonical spec forms (every trial key embeds one).
CANONICAL = {
    "fault/at": "at=3,k=2",
    "fault/burst-overlap-procs": "burst=4,count=3,gap=9,k=2;at=4,procs=0|3|99",
    "fault/every-start-count": "every=5,start=2,count=4",
    "fault/every-unbounded": "every=6,k=3",
    "fault/every-until": "every=7,start=5,count=6,k=2",
    "fault/fga-clustered": "storm=0-30,cadence=5,k=3,clustered;at=12,vars=canQ|ptr",
    "fault/scope-input-clustered": "burst=1,count=4,gap=3,k=3,scope=input,clustered",
    "fault/scope-reset": "every=4,count=5,k=2,scope=reset;seed=5",
    "fault/storm": "storm=10-40,cadence=6,k=3",
    "fault/vars": "every=4,count=6,k=2,vars=c|d;seed=11",
    "churn/clustered-procs-allow": (
        "at=2,crash=3,clustered;every=5,count=3,join=2,procs=0|1|2|3;"
        "burst=8,count=2,gap=9,crash=2;connectivity=allow"),
    "churn/clustered-procs-preserve": (
        "at=2,crash=3,clustered;every=5,count=3,join=2,procs=0|1|2|3;"
        "burst=8,count=2,gap=9,crash=2"),
    "churn/mix-allow": (
        "every=4,count=4,crash=1;burst=6,count=3,gap=5,join=1;at=9,drop_edge=2;"
        "storm=3-24,cadence=7,add_edge=1;connectivity=allow"),
    "churn/mix-preserve": (
        "every=4,count=4,crash=1;burst=6,count=3,gap=5,join=1;at=9,drop_edge=2;"
        "storm=3-24,cadence=7,add_edge=1"),
    "churn/unbounded-allow": (
        "every=3,crash=2;every=4,join=1;at=8,add_edge=2;"
        "storm=1-17,cadence=4,drop_edge=1;connectivity=allow"),
    "churn/unbounded-preserve": (
        "every=3,crash=1;every=4,start=6,join=1;every=5,drop_edge=1;seed=3"),
}

CHURN_FIELDS = ("action", "drops", "adds", "components", "live")


@pytest.mark.parametrize("name", sorted(FAULT_CASES))
def test_fault_stream_digest(name):
    build, spec = FAULT_CASES[name]
    bound = parse_schedule(spec).bind(build(), default_seed=7)
    assert digest(bound, ()) == FAULT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CHURN_CASES))
def test_churn_stream_digest(name):
    build, spec = CHURN_CASES[name]
    bound = parse_churn(spec).bind(build(), default_seed=7)
    assert digest(bound, CHURN_FIELDS) == CHURN_DIGESTS[name]


def test_fault_plan_victims_digest():
    draws = []
    for build in (unison_grid, fga_ring):
        algo = build()
        for k, clustered in ((1, False), (3, False), (3, True), (20, True)):
            plan_ = FaultPlan(k, clustered=clustered)
            for seed in range(4):
                draws.append(plan_.pick_victims(algo, Random(seed)))
    got = hashlib.sha256(repr(draws).encode("utf-8")).hexdigest()
    assert got == FAULT_PLAN_DIGEST



@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_forms(name):
    kind, _, case = name.partition("/")
    if kind == "fault":
        sched = parse_schedule(FAULT_CASES[case][1])
    else:
        sched = parse_churn(CHURN_CASES[case][1])
    assert sched.canonical() == CANONICAL[name]
