"""The four campaign grids the benchmark runs, and why each was chosen.

Every workload is a closed loop from one client process: it calls
``repro.engine.run_campaign`` into a fresh ``ResultStore``, waits for the
outcome, checks it, and only then starts the next repetition.  Repetition
``r`` of a run with benchmark seed ``s`` uses campaign seed and topology
seed ``s * 1000 + r``, so more repetitions add new trials instead of
replaying old ones, and the same seed always yields the same inputs.

``smoke`` selects a miniature grid of the same shape, run through the
same code path by ``run.py --smoke`` and by the benchmark's tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

#: Seed whose repetition-0 records are pinned in ``digests.json``.
DEFAULT_SEED = 1


def rep_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def pool_workers() -> int:
    """Two pool workers, never more than the cores this process may use."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``grids(smoke)`` → ``[(Campaign keyword args, run_campaign keyword
    #: args)]`` for one repetition.
    grids: Callable[[bool], list[tuple[dict, dict]]]
    #: Span names the traced run must record at least once; a wrapper
    #: that records nothing means a call site moved away from it.
    expects: tuple[str, ...]


def _unison_rings(smoke: bool):
    return [(
        dict(algorithms=("unison",), topologies=("ring",),
             sizes=(16,) if smoke else (16, 64, 128),
             daemons=("distributed-random",), trials=2 if smoke else 10),
        dict(batch=False, workers=0),
    )]


def _fga_dense(smoke: bool):
    return [(
        dict(algorithms=("fga",), topologies=("random",),
             sizes=(16,) if smoke else (64, 128), trials=2 if smoke else 8),
        dict(batch=True, workers=0),
    )]


def _recovery(smoke: bool):
    grid = dict(algorithms=("unison", "fga"), topologies=("ring",),
                sizes=(16,) if smoke else (32, 64), trials=2 if smoke else 3)
    run = dict(batch=True, workers=pool_workers())
    return [
        ({**grid, "params": (("faults", "burst=50,count=3,gap=100,k=2"),)}, run),
        ({**grid, "params": (("churn", "every=100,count=3,crash=1"),)}, run),
    ]


def _central(smoke: bool):
    return [(
        dict(algorithms=("unison",), topologies=("ring",),
             sizes=(32,) if smoke else (256,), daemons=("central",),
             scenarios=("faults:1",), trials=1 if smoke else 2),
        dict(batch=False, workers=0),
    )]


_COMMON = ("pool.unit", "harness.trial", "topology.build", "store.append")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "unison-rings-serial",
            "U o SDR rings run trial by trial: per-trial setup (topology, "
            "diameter, IR compile) dominates the step loop",
            _unison_rings,
            _COMMON + ("graph.diameter", "ir.compile", "simulator.init",
                       "kernel.run"),
        ),
        Workload(
            "fga-dense-batched",
            "FGA o SDR on dense random graphs in batched cells: the tiled "
            "step loop dominates and setup is negligible",
            _fga_dense,
            ("pool.unit", "harness.batch", "kernel.batch", "topology.build",
             "ir.compile", "store.append"),
        ),
        Workload(
            "recovery-pooled",
            "fault bursts (batched) and churn (serial) cells on two pool "
            "workers: disturbance layers, pool fan-out and the store",
            _recovery,
            _COMMON + ("pool.wait", "harness.batch", "kernel.batch",
                       "kernel.run", "faults.bind", "faults.pop_due"),
        ),
        Workload(
            "central-large-ring",
            "central daemon on a 256-ring: one move per step while every "
            "guard is re-evaluated, the case for activity-scoped stepping",
            _central,
            _COMMON + ("graph.diameter", "simulator.init", "kernel.run"),
        ),
    )
}


def campaigns(workload: Workload, seed: int, rep: int, smoke: bool):
    """``[(Campaign, run_campaign kwargs)]`` for one repetition."""
    from repro.engine import Campaign

    s = rep_seed(seed, rep)
    return [
        (Campaign(workload.name, seed=s, topology_seed=s, **grid), run)
        for grid, run in workload.grids(smoke)
    ]
