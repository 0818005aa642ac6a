"""repro.faults — transient faults: injection, schedules, and recovery.

Fault model (Devismes & Johnen, ICDCS 2019, Section 2): a transient
fault corrupts the *register contents* of a process — any of its
declared variables may be overwritten with an arbitrary value drawn
from that variable's declared domain — but never the code, the
topology, or a process identity.  Corrupted values always come from
``algorithm.random_state`` (dict side) or the kernel schema's declared
domains (vector side), so an injection can never produce a
configuration the algorithm itself could not be started from.

Two injection surfaces:

* **Adversarial initial configurations** — :class:`FaultPlan`,
  :func:`corrupt_processes` / :func:`corrupt_variables`, and the
  structured scenario builders (:func:`clock_gradient`,
  :func:`clock_split`, :func:`fake_reset_wave`,
  :func:`hollow_alliance`) perturb γ0 before the run starts.
* **Mid-run disturbances** — one occurrence clock
  (:mod:`repro.faults.timing`: the ``at/every/storm/burst`` timing, the
  per-occurrence PRNG, terminal pull-forward, and the poll rule every
  driver follows) carrying two payloads.  :class:`FaultSchedule`
  (parsed from specs like ``"every=200,k=3,scope=input"``) corrupts
  registers; :class:`ChurnSchedule` (``"every=50,crash=1"``) mutates
  the graph — links drop and appear, processes crash and rejoin with
  arbitrary state, which is one more arbitrarily corrupted process.
  Both fire identically on the dict engine, the fused kernel loop, and
  (faults) batched cells.  :class:`RecoveryProbe` and
  :class:`SdrWaveProbe` (re-exported from :mod:`repro.probes`) measure
  per-occurrence recovery without leaving the fused loop.
"""

from .churn import (
    BoundChurnSchedule,
    ChurnEvent,
    ChurnInfo,
    ChurnSchedule,
    parse_churn,
)
from .injector import FaultPlan, corrupt_processes, corrupt_variables
from .scenarios import clock_gradient, clock_split, fake_reset_wave, hollow_alliance
from .schedule import (
    BoundFaultSchedule,
    FaultEvent,
    FaultInfo,
    FaultSchedule,
    parse_schedule,
    resolve_variables,
)

__all__ = [
    # Initial-configuration corruption
    "FaultPlan",
    "corrupt_processes",
    "corrupt_variables",
    # Structured adversarial scenarios
    "clock_gradient",
    "clock_split",
    "fake_reset_wave",
    "hollow_alliance",
    # Mid-run fault schedules
    "FaultSchedule",
    "FaultEvent",
    "FaultInfo",
    "BoundFaultSchedule",
    "parse_schedule",
    "resolve_variables",
    # Mid-run topology churn
    "ChurnSchedule",
    "ChurnEvent",
    "ChurnInfo",
    "BoundChurnSchedule",
    "parse_churn",
]
