"""The occurrence clock shared by every mid-run disturbance.

The model has one kind of disturbance: a finite number of transient
faults striking between steps.  Its two payloads — corrupted registers
(:mod:`repro.faults.schedule`) and topology deltas
(:mod:`repro.faults.churn`) — share everything here: the ``(start, gap,
count)`` event timing (:class:`Timed`), the per-occurrence PRNG keyed on
identity rather than firing step (:func:`occurrence_rng`), the cursors
that fire occurrences and pull them forward (:class:`OccurrenceClock`),
the spec grammar's timing keys (:func:`parse_spec`), and the poll rule
every driver follows (:class:`Disturbances`), so the dict engine, the
stepped kernel, the fused loop and batched cells cannot drift apart.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, Sequence

#: Timing surface forms, in spec-key form.
KINDS = ("at", "every", "storm", "burst")

#: ``Disturbances.next_due`` once nothing is pending: no step reaches it.
NEVER = sys.maxsize

_SEP = "\x1f"
_SEED_MASK = (1 << 63) - 1
_INT_KEYS = ("start", "until", "count", "gap", "cadence") + KINDS


def occurrence_rng(seed: int, tag: str, event: int, occurrence: int) -> Random:
    """The dedicated PRNG for one occurrence of one event.

    Keyed on identity, not on firing step, and on the payload ``tag``
    (``fault``/``churn``) so co-scheduled payloads never share
    randomness.  SHA-256, like the campaign engine's seed derivation, so
    the stream is stable across platforms.
    """
    payload = f"{seed}{_SEP}{tag}{_SEP}{event}{_SEP}{occurrence}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return Random(int.from_bytes(digest[:8], "big") & _SEED_MASK)


class Timed:
    """Timing behaviour of an event dataclass with ``kind/start/gap/count``.

    Every surface form normalizes to ``(start, gap, count)``:
    ``at=S`` is ``(S, 0, 1)``; ``every=K`` is ``(K, K, None)`` (unbounded);
    ``storm=A-B,cadence=C`` is ``(A, C, (B-A)//C + 1)``;
    ``burst=S,count=N,gap=G`` is ``(S, G, N)``.
    """

    kind: str
    start: int
    gap: int
    count: int | None

    def _check_timing(self, noun: str) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown {noun} event kind {self.kind!r}")
        if self.start < 0:
            raise ValueError(f"{noun} event start step must be >= 0")
        if self.count is not None and self.count < 1:
            raise ValueError(f"{noun} event count must be >= 1")
        if (self.count is None or self.count > 1) and self.gap < 1:
            raise ValueError(f"repeating {noun} events need gap >= 1")

    def occurrence_steps(self) -> Iterator[int]:
        """Nominal firing steps, in order (infinite for unbounded events)."""
        step, i = self.start, 0
        while self.count is None or i < self.count:
            yield step
            step += self.gap
            i += 1

    def timing_clause(self) -> list[str]:
        """The timing half of this event's canonical spec clause."""
        if self.kind == "at":
            return [f"at={self.start}"]
        if self.kind == "every":
            parts = [f"every={self.gap}"]
            if self.start != self.gap:
                parts.append(f"start={self.start}")
            if self.count is not None:
                parts.append(f"count={self.count}")
            return parts
        if self.kind == "storm":
            last = self.start + (self.count - 1) * self.gap
            return [f"storm={self.start}-{last}", f"cadence={self.gap}"]
        return [f"burst={self.start}", f"count={self.count}", f"gap={self.gap}"]


class Schedule:
    """An ordered collection of timed events, plus its seed.

    ``seed=None`` (the default) defers to the execution: the harness
    binds such schedules with a trial-derived seed, so every trial in a
    sweep sees independent — but individually reproducible —
    disturbances.  An explicit seed pins the stream and becomes part of
    the canonical spec (and hence of the trial key).
    """

    #: Payload name used in messages (``fault``/``churn``).
    noun = ""

    def __init__(self, events: Sequence[Timed], seed: int | None = None):
        if not events:
            raise ValueError(f"a {self.noun} schedule needs at least one event")
        self.events = tuple(events)
        self.seed = seed

    @property
    def finite(self) -> bool:
        return all(e.count is not None for e in self.events)

    @property
    def total_occurrences(self) -> int | None:
        """Number of occurrences a full run fires (None if unbounded)."""
        if not self.finite:
            return None
        return sum(e.count for e in self.events)

    def _settings(self) -> list[str]:
        """Schedule-wide payload clauses, rendered before the seed."""
        return []

    def canonical(self) -> str:
        """Normalized spec string — the *measured parameter* form."""
        parts = [e.canonical() for e in self.events] + self._settings()
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


@dataclass
class Occurrence:
    """One committed disturbance: identity, nominal step, drawn payload.

    Register-only (fault) occurrences leave ``action``, ``drops`` and
    ``adds`` empty; churn occurrences fill them and report the live
    subgraph's shape after the mutation.
    """

    event: int
    index: int
    step: int
    #: Schedule-wide occurrence ordinal (0-based firing order).
    burst: int = 0
    victims: tuple[int, ...] = ()
    #: ``(process, variable, decoded value)`` triples, in application order.
    assignments: tuple[tuple[int, str, object], ...] = ()
    #: Churn action (``crash``/``join``/``drop_edge``/``add_edge``).
    action: str = ""
    #: Undirected ``(u, v)`` link deltas, ``u < v``, in application order.
    drops: tuple[tuple[int, int], ...] = ()
    adds: tuple[tuple[int, int], ...] = ()
    #: Live-subgraph shape after a churn mutation.
    components: int = 0
    live: int = 0


class OccurrenceClock:
    """A schedule bound to an algorithm and a seed: its occurrence clock.

    Owns the per-event cursors over the nominal occurrence steps.  The
    payload subclasses (:class:`~repro.faults.schedule.BoundFaultSchedule`,
    :class:`~repro.faults.churn.BoundChurnSchedule`) draw each popped
    occurrence from :meth:`_rng`, build the probe record (``info``) and
    hand it to the right probe hook (``notify``).
    """

    #: Occurrence-stream tag (``fault``/``churn``), part of every PRNG key.
    tag = ""

    def __init__(self, schedule: Schedule, algorithm, seed: int):
        self.schedule = schedule
        self.algorithm = algorithm
        self.seed = seed
        #: Occurrences popped so far.
        self.fired = 0
        self._iters = [e.occurrence_steps() for e in schedule.events]
        self._next: list[int | None] = [next(it) for it in self._iters]
        self._counts = [0] * len(schedule.events)

    def peek_next(self) -> int | None:
        """Nominal step of the earliest pending occurrence (None = done)."""
        pending = [s for s in self._next if s is not None]
        return min(pending) if pending else None

    @property
    def exhausted(self) -> bool:
        return self.peek_next() is None

    def _advance(self, event: int) -> Occurrence:
        occ = Occurrence(event, self._counts[event], self._next[event],
                         burst=self.fired)
        self._counts[event] += 1
        self._next[event] = next(self._iters[event], None)
        self.fired += 1
        return occ

    def pop_due(self, step: int, idle: bool = False) -> list[Occurrence]:
        """Occurrences due at ``step``, in ``(nominal step, event)`` order.

        Firing one at a time interleaves overlapping events
        deterministically.  ``idle=True`` signals a terminal
        configuration: when nothing is due but occurrences remain, the
        earliest is pulled forward, keeping its nominal step.  The
        payload subclasses draw what this returns, in this order.
        """
        due: list[Occurrence] = []
        while True:
            ready = [
                i for i, s in enumerate(self._next) if s is not None and s <= step
            ]
            if not ready:
                break
            due.append(self._advance(min(ready, key=lambda i: (self._next[i], i))))
        if not due and idle:
            pending = [i for i, s in enumerate(self._next) if s is not None]
            if pending:
                due.append(
                    self._advance(min(pending, key=lambda i: (self._next[i], i)))
                )
        return due

    def _rng(self, occ: Occurrence) -> Random:
        return occurrence_rng(self.seed, self.tag, occ.event, occ.index)


class Disturbances:
    """One execution's live bound schedules, polled by one rule.

    Every driver follows the same loop: when the step counter reaches
    :attr:`next_due` (one int comparison per step) it calls
    :meth:`fire_due`; when the configuration is terminal it calls
    :meth:`pull_forward` and, on ``True``, polls again before deciding
    the run is over.  Schedules fire in the order given (faults before
    churn), each schedule's occurrences of one poll as one batch handed
    to ``disturb(schedule, due)``, which applies them between steps,
    recomputes the enabled set, rebases the round counter, and notifies
    probes.  ``terminal()`` answers whether the configuration is still
    terminal after a batch.
    """

    __slots__ = ("live", "next_due", "_disturb", "_terminal")

    def __init__(self, schedules: Sequence[OccurrenceClock | None],
                 disturb: Callable[[OccurrenceClock, list], None],
                 terminal: Callable[[], bool]):
        self.live = [s for s in schedules if s is not None]
        self._disturb = disturb
        self._terminal = terminal
        self._refresh()

    def _refresh(self) -> None:
        self.live = [s for s in self.live if not s.exhausted]
        self.next_due = min((s.peek_next() for s in self.live), default=NEVER)

    def fire_due(self, step: int) -> None:
        """Fire every occurrence whose nominal step has come."""
        for sched in self.live:
            if sched.peek_next() <= step:
                self._disturb(sched, sched.pop_due(step))
        self._refresh()

    def pull_forward(self, step: int) -> bool:
        """At a terminal configuration, pull pending occurrences forward.

        Schedules are tried in order, one pulled occurrence each; the
        answer is ``True`` (poll again before ending the run) once a
        pull wakes a process, or whenever it came from a *finite*
        schedule — a finite schedule always plays out in full, even
        when its pulls wake nobody.  An unbounded schedule whose pull
        wakes nobody falls through to the next, and ``False`` means the
        run ends terminal.
        """
        for sched in self.live:
            self._disturb(sched, sched.pop_due(step, idle=True))
            if sched.schedule.finite or not self._terminal():
                self._refresh()
                return True
        self._refresh()
        return False


# ----------------------------------------------------------------------
# The spec grammar's timing half.
# ----------------------------------------------------------------------
def _pop_timing(opts: dict, noun: str) -> dict:
    """Pop one clause's timing keys → ``kind/start/gap/count`` fields."""
    kinds = [k for k in KINDS if k in opts]
    if len(kinds) != 1:
        raise ValueError(
            f"each {noun} clause needs exactly one of {KINDS}, got {kinds}"
        )
    kind = kinds[0]
    if kind == "at":
        return dict(kind="at", start=opts.pop("at"))
    if kind == "every":
        gap = opts.pop("every")
        start = opts.pop("start", gap)
        count = opts.pop("count", None)
        if "until" in opts:
            until = opts.pop("until")
            if until < start:
                raise ValueError("every: until must be >= start")
            count = (until - start) // gap + 1
        return dict(kind="every", start=start, gap=gap, count=count)
    if kind == "storm":
        lo, hi = opts.pop("storm")
        cadence = opts.pop("cadence", None)
        if cadence is None:
            raise ValueError("storm windows need cadence=K")
        if hi < lo:
            raise ValueError(f"storm window {lo}-{hi} is empty")
        return dict(kind="storm", start=lo, gap=cadence,
                    count=(hi - lo) // cadence + 1)
    start = opts.pop("burst")
    count = opts.pop("count", None)
    gap = opts.pop("gap", None)
    if count is None or gap is None:
        raise ValueError("bursts need count=N and gap=G")
    return dict(kind="burst", start=start, gap=gap, count=count)


def parse_spec(spec: str, noun: str,
               payload_key: Callable[[str, str, dict, dict], bool],
               make_event: Callable[[dict, dict], Timed]) -> tuple[list, dict]:
    """Parse a ``;``-separated spec into ``(events, settings)``.

    Timing keys, ``procs`` and ``clustered`` are parsed here, and
    ``seed`` lands in ``settings``; every other key goes to
    ``payload_key(key, value, opts, settings)``, which stores it and
    answers whether it knew the key.  ``make_event(timing, opts)`` then
    builds one event per clause from its timing fields, popping the
    payload options it uses; any option left over does not apply to the
    clause.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty {noun} spec")
    events: list[Timed] = []
    settings: dict = {}
    for clause in spec.split(";"):
        opts: dict = {}
        for item in clause.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                if item == "clustered":
                    opts["clustered"] = True
                    continue
                raise ValueError(f"malformed {noun} spec item {item!r}")
            key, _, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if key == "seed":
                settings["seed"] = int(value)
            elif key == "storm":
                lo, sep, hi = value.partition("-")
                if not sep:
                    raise ValueError(f"storm window must be A-B, got {value!r}")
                opts["storm"] = (int(lo), int(hi))
            elif key == "procs":
                opts["procs"] = tuple(int(p) for p in value.split("|") if p != "")
            elif key in _INT_KEYS:
                opts[key] = int(value)
            elif not payload_key(key, value, opts, settings):
                raise ValueError(f"unknown {noun} spec key {key!r}")
        if not opts:
            continue
        timing = _pop_timing(opts, noun)
        events.append(make_event(timing, opts))
        if opts:
            raise ValueError(
                f"{noun} spec options {sorted(opts)} don't apply to "
                f"{timing['kind']!r}"
            )
    if not events:
        raise ValueError(f"{noun} spec {spec!r} declares no events")
    return events, settings
