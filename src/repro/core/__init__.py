"""Simulation kernel for the locally shared memory model with composite atomicity.

This subpackage implements the computational model of the paper (Section 2):
networks, configurations, guarded-rule algorithms, daemons, atomic steps,
and move/round accounting.  Everything else in :mod:`repro` builds on it.
"""

from .algorithm import Algorithm, Domain
from .composition import Composition
from .configuration import Configuration
from .daemon import (
    CentralDaemon,
    Daemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    ScriptedDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
    daemon_kind_known,
    make_daemon,
)
from .detectors import StabilizationDetector, measure_stabilization
from .exceptions import (
    AlgorithmError,
    DaemonError,
    ModelViolation,
    NotStabilized,
    ReproError,
    RequirementViolation,
    TopologyError,
)
from .graph import Network
from .rounds import RoundCounter
from .simulator import BACKENDS, RunResult, Simulator
from .trace import StepRecord, Trace


def __getattr__(name: str):
    # Forward the AdversarialDaemon deprecation shim (moved to
    # repro.adversary.search) without importing it eagerly.
    if name == "AdversarialDaemon":
        from . import daemon

        return daemon.AdversarialDaemon
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Algorithm",
    "BACKENDS",
    "Composition",
    "Configuration",
    "Daemon",
    "Domain",
    "SynchronousDaemon",
    "CentralDaemon",
    "LocallyCentralDaemon",
    "DistributedRandomDaemon",
    "WeaklyFairDaemon",
    "AdversarialDaemon",
    "ScriptedDaemon",
    "make_daemon",
    "daemon_kind_known",
    "StabilizationDetector",
    "measure_stabilization",
    "Network",
    "RoundCounter",
    "RunResult",
    "Simulator",
    "StepRecord",
    "Trace",
    "ReproError",
    "TopologyError",
    "AlgorithmError",
    "DaemonError",
    "ModelViolation",
    "RequirementViolation",
    "NotStabilized",
]
