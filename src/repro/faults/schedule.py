"""Declarative, seeded mid-run fault schedules — the register payload.

A :class:`FaultSchedule` describes *when* transient faults strike an
execution (the shared timing of :mod:`repro.faults.timing`: at a fixed
step, every ``k`` steps, across a storm window, or as a repeated burst),
*which* registers they hit (``k`` random processes, an explicit process
list, a BFS-clustered region, restricted to named variables or a layer
scope such as "only the input algorithm's state"), and nothing else:
the corrupted *values* are always drawn from the algorithm's own
declared domains via ``random_state``, because transient faults in the
model corrupt register contents, never code.

Binding a schedule to an algorithm and a seed (:meth:`FaultSchedule.bind`)
pre-commits every occurrence's victims and replacement values to the
occurrence's own PRNG stream (tag ``fault``), independent of the
daemon's RNG, of the backend, and of *when* the occurrence actually
fires — so every driver applies byte-identical corruptions.

Schedules are written either programmatically or as a compact spec
string (the sweep CLI's ``--faults`` argument)::

    at=100,k=3,vars=c            one 3-process fault at step 100
    every=250,k=1                a 1-process fault every 250 steps
    storm=1000-2000,cadence=50,k=2
                                 a storm window: every 50 steps in [1000, 2000]
    burst=500,count=3,gap=100,k=2,scope=input
                                 3 bursts at steps 500/600/700, input layer only
    at=0,procs=1|4;at=64,k=2,clustered
                                 two events, ';'-separated

:func:`parse_schedule` validates a spec up front and
:meth:`FaultSchedule.canonical` renders the normalized form, so
equivalent spellings share one trial key (fault schedules change
results, hence they are *measured* parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .injector import pick_victims
from .timing import Occurrence, OccurrenceClock, Schedule, Timed, parse_spec

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInfo",
    "BoundFaultSchedule",
    "parse_schedule",
]

#: Layer scopes resolvable against a composed algorithm.
SCOPES = ("input", "reset")


@dataclass(frozen=True)
class FaultEvent(Timed):
    """One timed corruption pattern inside a schedule.

    Timing is ``(start, gap, count)`` (see :class:`~repro.faults.timing.Timed`);
    the rest says which registers one occurrence corrupts.
    """

    kind: str  # "at" | "every" | "storm" | "burst"
    start: int
    gap: int = 0
    count: int | None = 1
    k: int = 1
    procs: tuple[int, ...] = ()
    variables: tuple[str, ...] = ()
    scope: str = ""
    clustered: bool = False

    def __post_init__(self):
        self._check_timing("fault")
        if self.k < 1 and not self.procs:
            raise ValueError("fault events must target at least one process")
        if self.procs and self.clustered:
            raise ValueError("explicit procs and clustered are mutually exclusive")
        if self.scope and self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r} (expected one of {SCOPES})")
        if self.scope and self.variables:
            raise ValueError("vars and scope are mutually exclusive")

    def canonical(self) -> str:
        """The normalized spec clause for this event."""
        parts = self.timing_clause()
        if self.procs:
            parts.append("procs=" + "|".join(str(p) for p in self.procs))
        elif self.k != 1:
            parts.append(f"k={self.k}")
        if self.variables:
            parts.append("vars=" + "|".join(self.variables))
        if self.scope:
            parts.append(f"scope={self.scope}")
        if self.clustered:
            parts.append("clustered")
        return ",".join(parts)


@dataclass(frozen=True)
class FaultInfo:
    """What the drivers hand to ``Probe.on_fault`` at each injection.

    ``step``/``moves``/``rounds`` are the execution's accounting totals at
    the injected configuration (injection itself adds none of the three).
    ``nominal_step`` differs from ``step`` only when a terminal
    configuration pulled the occurrence forward.
    """

    step: int
    nominal_step: int
    burst: int
    victims: tuple[int, ...]
    variables: tuple[str, ...]
    moves: int = 0
    rounds: int = 0


class FaultSchedule(Schedule):
    """An ordered collection of :class:`FaultEvent`, plus its seed."""

    noun = "fault"

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        return parse_schedule(spec)

    def bind(self, algorithm, default_seed: int = 0) -> "BoundFaultSchedule":
        """Commit this schedule to one execution's algorithm and seed."""
        seed = self.seed if self.seed is not None else default_seed
        return BoundFaultSchedule(self, algorithm, seed)


class BoundFaultSchedule(OccurrenceClock):
    """A fault schedule bound to an algorithm and a seed.

    Each popped occurrence carries pre-drawn ``(process, variable,
    value)`` triples to apply to the current configuration (dict
    ``Configuration`` or kernel columns — values are decoded, the
    appliers encode).  The drivers poll it through
    :class:`~repro.faults.timing.Disturbances`.
    """

    tag = "fault"

    def __init__(self, schedule: FaultSchedule, algorithm, seed: int):
        super().__init__(schedule, algorithm, seed)
        self._allowed = tuple(
            resolve_variables(algorithm, e.variables, e.scope)
            for e in schedule.events
        )

    def pop_due(self, step: int, idle: bool = False) -> list[Occurrence]:
        """Due occurrences (see :meth:`OccurrenceClock.pop_due`), drawn."""
        return [self._draw(occ) for occ in super().pop_due(step, idle)]

    def _draw(self, occ: Occurrence) -> Occurrence:
        """Commit victims and replacement values for one occurrence."""
        event = self.schedule.events[occ.event]
        rng = self._rng(occ)
        if event.procs:
            n = self.algorithm.network.n
            victims = [p for p in event.procs if 0 <= p < n]
        else:
            victims = pick_victims(self.algorithm.network, rng, event.k,
                                   event.clustered)
        occ.victims = tuple(sorted(victims))
        allowed = self._allowed[occ.event]
        triples = []
        for u in occ.victims:
            junk = self.algorithm.random_state(u, rng)
            for var in allowed:
                triples.append((u, var, junk[var]))
        occ.assignments = tuple(triples)
        return occ

    def info(self, occ: Occurrence, step: int,
             moves: int = 0, rounds: int = 0) -> FaultInfo:
        return FaultInfo(
            step=step,
            nominal_step=occ.step,
            burst=occ.burst,
            victims=occ.victims,
            variables=tuple(self._allowed[occ.event]),
            moves=moves,
            rounds=rounds,
        )

    def notify(self, probes, occ: Occurrence, step: int,
               moves: int, rounds: int) -> None:
        """Hand every probe this occurrence's :class:`FaultInfo`."""
        info = self.info(occ, step, moves, rounds)
        for probe in probes:
            probe.on_fault(info)


def resolve_variables(algorithm, variables: Sequence[str], scope: str) -> tuple[str, ...]:
    """Resolve an event's variable restriction against one algorithm.

    Explicit names are validated against ``algorithm.variables()``; the
    named scopes resolve structurally: ``input`` is the composed input
    layer's variables, ``reset`` everything else (SDR's own registers).
    """
    declared = tuple(algorithm.variables())
    if variables:
        unknown = [v for v in variables if v not in declared]
        if unknown:
            raise ValueError(
                f"fault schedule targets unknown variable(s) {unknown} "
                f"(algorithm declares {sorted(declared)})"
            )
        return tuple(variables)
    if scope:
        inner = getattr(algorithm, "input", None)
        if inner is None:
            raise ValueError(
                f"scope={scope!r} needs a composed algorithm with an input "
                f"layer; {type(algorithm).__name__} has none"
            )
        input_vars = tuple(inner.variables())
        if scope == "input":
            return input_vars
        return tuple(v for v in declared if v not in set(input_vars))
    return declared


# ----------------------------------------------------------------------
# The spec grammar's payload half (the CLI's --faults argument).
# ----------------------------------------------------------------------
def _payload_key(key: str, value: str, opts: dict, settings: dict) -> bool:
    if key == "k":
        opts["k"] = int(value)
    elif key == "vars":
        opts["vars"] = tuple(v for v in value.split("|") if v)
    elif key == "scope":
        opts["scope"] = value
    else:
        return False
    return True


def _make_event(timing: dict, opts: dict) -> FaultEvent:
    return FaultEvent(
        **timing,
        k=opts.pop("k", 1),
        procs=opts.pop("procs", ()),
        variables=opts.pop("vars", ()),
        scope=opts.pop("scope", ""),
        clustered=opts.pop("clustered", False),
    )


def parse_schedule(spec: str) -> FaultSchedule:
    """Parse and validate a ``--faults`` spec string.

    Raises :class:`ValueError` with a pointed message on any malformed
    spec — the CLI calls this before running anything.
    """
    if isinstance(spec, FaultSchedule):
        return spec
    events, settings = parse_spec(spec, "fault", _payload_key, _make_event)
    return FaultSchedule(events, seed=settings.get("seed"))
