"""Declarative, seeded topology churn schedules — the topology payload.

Where :mod:`repro.faults.schedule` corrupts *register contents*, churn
mutates the *communication graph* mid-run: links appear and disappear
(``add_edge``/``drop_edge``), processes crash (silenced — state frozen,
every incident link removed, masked out of guard evaluation, daemon
selection, and move/round accounting) and later rejoin with arbitrary
state drawn from the algorithm's declared domains (``join`` — which is
exactly the self-stabilization premise: a joining process is
indistinguishable from an arbitrarily corrupted one).  So churn is one
more payload on the single occurrence clock of
:mod:`repro.faults.timing`: same timing, same pull-forward, same
per-occurrence PRNG (tag ``churn``), same poll rule in every driver.

What this module adds is the payload: topology deltas and the
connectivity policy.  A churn draw is *state-dependent* — which links
can drop depends on which links exist — so the bound schedule owns the
canonical topology state (liveness vector + current adjacency) and
updates it at draw time, in firing order.  Every engine replays the
identical occurrence stream, so dict, stepped-kernel, and fused
executions see byte-identical topology sequences under one seed.

A clause carries the shared timing keys and one action with its ``k``::

    every=50,crash=1                 crash one process every 50 steps
    at=100,drop_edge=2               drop two links at step 100
    burst=200,count=3,gap=80,join=1  three rejoins at 200/280/360
    every=40,crash=1;every=60,join=1,connectivity=allow

``procs=a|b`` restricts the candidate pool (crash/join), ``clustered``
crashes a BFS-connected region, ``connectivity=preserve`` (the default)
refuses candidates that would increase the live subgraph's component
count; ``connectivity=allow`` permits disconnection, and every
occurrence records the resulting component count either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from .timing import Occurrence, OccurrenceClock, Schedule, Timed, parse_spec

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "ChurnInfo",
    "BoundChurnSchedule",
    "parse_churn",
]

#: Occurrence actions, in spec-key form.
ACTIONS = ("crash", "join", "drop_edge", "add_edge")

#: Connectivity policies.
CONNECTIVITY = ("preserve", "allow")


@dataclass(frozen=True)
class ChurnEvent(Timed):
    """One timed topology mutation pattern inside a schedule.

    Timing is ``(start, gap, count)`` (see :class:`~repro.faults.timing.Timed`).
    ``action`` is what fires; ``k`` how many processes/links one
    occurrence touches.
    """

    action: str  # "crash" | "join" | "drop_edge" | "add_edge"
    kind: str  # "at" | "every" | "storm" | "burst"
    start: int
    gap: int = 0
    count: int | None = 1
    k: int = 1
    procs: tuple[int, ...] = ()
    clustered: bool = False

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown churn action {self.action!r}")
        self._check_timing("churn")
        if self.k < 1:
            raise ValueError("churn events must touch at least one target (k >= 1)")
        if self.procs and self.action not in ("crash", "join"):
            raise ValueError("procs= applies only to crash/join churn events")
        if self.clustered and self.action != "crash":
            raise ValueError("clustered applies only to crash churn events")
        if self.procs and self.clustered:
            raise ValueError("explicit procs and clustered are mutually exclusive")

    def canonical(self) -> str:
        """The normalized spec clause for this event."""
        parts = self.timing_clause()
        parts.append(f"{self.action}={self.k}")
        if self.procs:
            parts.append("procs=" + "|".join(str(p) for p in self.procs))
        if self.clustered:
            parts.append("clustered")
        return ",".join(parts)


@dataclass(frozen=True)
class ChurnInfo:
    """What the drivers hand to ``Probe.on_churn`` at each occurrence.

    ``dropped``/``added`` are the link deltas actually applied (crash
    reports its incident links under ``dropped``, join its reconnections
    under ``added``); ``components`` and ``live`` describe the live
    subgraph *after* the mutation.  ``step``/``moves``/``rounds`` are
    the execution's accounting totals at the mutated configuration.
    """

    step: int
    nominal_step: int
    burst: int
    action: str
    victims: tuple[int, ...]
    dropped: tuple[tuple[int, int], ...]
    added: tuple[tuple[int, int], ...]
    components: int
    live: int
    moves: int = 0
    rounds: int = 0


class ChurnSchedule(Schedule):
    """An ordered collection of :class:`ChurnEvent`, plus seed and policy.

    ``connectivity`` is schedule-wide: ``preserve`` (default) draws only
    candidates that keep the live subgraph's component count from
    growing, ``allow`` lets churn partition it.
    """

    noun = "churn"

    def __init__(
        self,
        events: Sequence[ChurnEvent],
        seed: int | None = None,
        connectivity: str = "preserve",
    ):
        super().__init__(events, seed)
        if connectivity not in CONNECTIVITY:
            raise ValueError(
                f"unknown connectivity policy {connectivity!r} "
                f"(expected one of {CONNECTIVITY})"
            )
        self.connectivity = connectivity

    @classmethod
    def parse(cls, spec: str) -> "ChurnSchedule":
        return parse_churn(spec)

    def _settings(self) -> list[str]:
        if self.connectivity != "preserve":
            return [f"connectivity={self.connectivity}"]
        return []

    def bind(self, algorithm, default_seed: int = 0) -> "BoundChurnSchedule":
        """Commit this schedule to one execution's algorithm and seed."""
        seed = self.seed if self.seed is not None else default_seed
        return BoundChurnSchedule(self, algorithm, seed)


def _count_components(adj, live) -> int:
    """Connected components of the live subgraph (dead processes excluded)."""
    seen = set()
    count = 0
    for s in range(len(adj)):
        if not live[s] or s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if live[v] and v not in seen:
                    seen.add(v)
                    stack.append(v)
    return count


class BoundChurnSchedule(OccurrenceClock):
    """A churn schedule bound to an algorithm and a seed.

    Owns the *canonical topology state*: the liveness vector, the current
    adjacency, and the deployment ("base") adjacency that joins reconnect
    into.  Draws happen at pop time and mutate this canonical state —
    including the shared :class:`~repro.core.graph.Network`, mirrored
    immediately so state-dependent draws (junk pointers sampled from a
    rejoined process's neighborhood) read the same topology regardless
    of which engine replays the stream.  The occurrence stream therefore
    depends only on the schedule and seed; engines mirror each
    occurrence's ``drops``/``adds``/``assignments`` into their own
    structures (:meth:`repro.core.kernel.csr.CSRAdjacency.apply_delta`
    plus the liveness mask on the kernel side — the dict side reads the
    already-mirrored ``Network`` directly).

    Timing and pull-forward are the shared occurrence clock's, so a
    silent system still experiences its churn.
    """

    tag = "churn"

    def __init__(self, schedule: ChurnSchedule, algorithm, seed: int):
        super().__init__(schedule, algorithm, seed)
        network = algorithm.network
        #: The live :class:`~repro.core.graph.Network`, mirrored *at draw
        #: time*: every committed delta is applied here immediately, so
        #: state-dependent draws (a rejoined process's junk pointer is
        #: sampled from its current neighborhood) read identical topology
        #: no matter which engine replays the occurrence stream.
        self.network = network
        self.n = network.n
        #: Canonical liveness (all processes start live).
        self.live = [True] * self.n
        #: Canonical current adjacency (mutated at draw time).
        self.adj = [set(network.neighbors(u)) for u in range(self.n)]
        #: Deployment adjacency — the links a rejoining process reclaims.
        self.base = tuple(tuple(network.neighbors(u)) for u in range(self.n))
        self._preserve = schedule.connectivity == "preserve"
        self._variables = tuple(algorithm.variables())

    def pop_due(self, step: int, idle: bool = False) -> list[Occurrence]:
        """Due occurrences (see :meth:`OccurrenceClock.pop_due`), drawn.

        Each is drawn in firing order and its delta committed to the
        canonical state before the next is drawn — callers must mirror
        every returned occurrence into their engine.
        """
        return [self._draw(occ) for occ in super().pop_due(step, idle)]

    # ------------------------------------------------------------------
    # Canonical-state queries (for drivers and posthoc sync)
    # ------------------------------------------------------------------
    def current_edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical link set as sorted ``(u, v)`` pairs, ``u < v``."""
        return tuple(
            (u, v)
            for u in range((self.n))
            for v in sorted(self.adj[u])
            if u < v
        )

    def dead(self) -> tuple[int, ...]:
        """Currently crashed process indices, ascending."""
        return tuple(u for u in range(self.n) if not self.live[u])

    def components(self) -> int:
        """Component count of the canonical live subgraph."""
        return _count_components(self.adj, self.live)

    # ------------------------------------------------------------------
    # Draws (state-dependent, committed at pop time)
    # ------------------------------------------------------------------
    def _draw(self, occ: Occurrence) -> Occurrence:
        event = self.schedule.events[occ.event]
        rng = self._rng(occ)
        occ.action = event.action
        if event.action == "crash":
            self._draw_crash(occ, event, rng)
        elif event.action == "join":
            self._draw_join(occ, event, rng)
        elif event.action == "drop_edge":
            self._draw_drop(occ, event, rng)
        else:
            self._draw_add(occ, event, rng)
        occ.components = self.components()
        occ.live = sum(self.live)
        return occ

    def _splits(self, u: int) -> bool:
        """Would silencing live process ``u`` grow the component count?"""
        before = _count_components(self.adj, self.live)
        self.live[u] = False
        after = _count_components(self.adj, self.live)
        self.live[u] = True
        return after > before

    def _crash_eligible(self, pool) -> list[int]:
        cands = [u for u in pool if self.live[u]]
        if sum(self.live) <= 1:
            return []  # never silence the last live process
        if self._preserve:
            cands = [u for u in cands if not self._splits(u)]
        return cands

    def _apply_crash(self, u: int, drops: list) -> None:
        self.live[u] = False
        for v in sorted(self.adj[u]):
            self.adj[v].discard(u)
            drops.append((u, v) if u < v else (v, u))
        self.adj[u].clear()

    def _draw_crash(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        pool = event.procs or range(self.n)
        victims: list[int] = []
        drops: list[tuple[int, int]] = []
        if event.clustered:
            cands = self._crash_eligible(pool)
            if cands:
                seed = cands[rng.randrange(len(cands))]
                frontier = sorted(self.adj[seed])
                self._apply_crash(seed, drops)
                victims.append(seed)
                seen = {seed}
                while len(victims) < event.k and frontier:
                    v = frontier.pop(rng.randrange(len(frontier)))
                    if v in seen:
                        continue
                    seen.add(v)
                    if v not in self._crash_eligible((v,)):
                        continue
                    neigh = sorted(self.adj[v])
                    self._apply_crash(v, drops)
                    victims.append(v)
                    frontier.extend(w for w in neigh if w not in seen)
        else:
            for _ in range(event.k):
                cands = self._crash_eligible(pool)
                if not cands:
                    break
                u = cands[rng.randrange(len(cands))]
                self._apply_crash(u, drops)
                victims.append(u)
        if drops:
            self.network.apply_delta(drops, ())
        occ.victims = tuple(sorted(victims))
        occ.drops = tuple(drops)

    def _draw_join(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        pool = event.procs or range(self.n)
        victims: list[int] = []
        adds: list[tuple[int, int]] = []
        assignments: list[tuple[int, str, object]] = []
        for _ in range(event.k):
            cands = [u for u in pool if not self.live[u]]
            if self._preserve:
                cands = [
                    u for u in cands
                    if any(self.live[v] for v in self.base[u]) or sum(self.live) == 0
                ]
            if not cands:
                break
            u = cands[rng.randrange(len(cands))]
            self.live[u] = True
            reclaimed = []
            for v in self.base[u]:
                if self.live[v] and v not in self.adj[u]:
                    self.adj[u].add(v)
                    self.adj[v].add(u)
                    reclaimed.append((u, v) if u < v else (v, u))
            # Mirror the reclaimed links before drawing junk: the junk
            # pointer domain is the process's *post-join* neighborhood.
            if reclaimed:
                self.network.apply_delta((), reclaimed)
                adds.extend(reclaimed)
            junk = self.algorithm.random_state(u, rng)
            for var in self._variables:
                assignments.append((u, var, junk[var]))
            victims.append(u)
        occ.victims = tuple(sorted(victims))
        occ.adds = tuple(adds)
        occ.assignments = tuple(assignments)

    def _draw_drop(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        drops: list[tuple[int, int]] = []
        for _ in range(event.k):
            cands = list(self.current_edges())
            if self._preserve:
                base = _count_components(self.adj, self.live)
                keep = []
                for u, v in cands:
                    self.adj[u].discard(v)
                    self.adj[v].discard(u)
                    if _count_components(self.adj, self.live) == base:
                        keep.append((u, v))
                    self.adj[u].add(v)
                    self.adj[v].add(u)
                cands = keep
            if not cands:
                break
            u, v = cands[rng.randrange(len(cands))]
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            drops.append((u, v))
        if drops:
            self.network.apply_delta(drops, ())
        occ.drops = tuple(drops)

    def _draw_add(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        adds: list[tuple[int, int]] = []
        for _ in range(event.k):
            live = [u for u in range(self.n) if self.live[u]]
            cands = [
                (u, v)
                for i, u in enumerate(live)
                for v in live[i + 1:]
                if v not in self.adj[u]
            ]
            if not cands:
                break
            u, v = cands[rng.randrange(len(cands))]
            self.adj[u].add(v)
            self.adj[v].add(u)
            adds.append((u, v))
        if adds:
            self.network.apply_delta((), adds)
        occ.adds = tuple(adds)

    def info(self, occ: Occurrence, step: int,
             moves: int = 0, rounds: int = 0) -> ChurnInfo:
        return ChurnInfo(
            step=step,
            nominal_step=occ.step,
            burst=occ.burst,
            action=occ.action,
            victims=occ.victims,
            dropped=occ.drops,
            added=occ.adds,
            components=occ.components,
            live=occ.live,
            moves=moves,
            rounds=rounds,
        )

    def notify(self, probes, occ: Occurrence, step: int,
               moves: int, rounds: int) -> None:
        """Hand every probe this occurrence's :class:`ChurnInfo`."""
        info = self.info(occ, step, moves, rounds)
        for probe in probes:
            probe.on_churn(info)


# ----------------------------------------------------------------------
# The spec grammar's payload half (the CLI's --churn argument).
# ----------------------------------------------------------------------
def _payload_key(key: str, value: str, opts: dict, settings: dict) -> bool:
    if key == "connectivity":
        if value not in CONNECTIVITY:
            raise ValueError(
                f"unknown connectivity policy {value!r} "
                f"(expected one of {CONNECTIVITY})"
            )
        settings["connectivity"] = value
    elif key in ACTIONS:
        if "action" in opts:
            raise ValueError(
                f"churn clauses take exactly one action, got both "
                f"{opts['action']!r} and {key!r}"
            )
        opts["action"] = key
        opts["k"] = int(value)
    else:
        return False
    return True


def _make_event(timing: dict, opts: dict) -> ChurnEvent:
    if "action" not in opts:
        raise ValueError(
            f"each churn clause needs exactly one action of {ACTIONS} "
            f"(e.g. crash=1)"
        )
    return ChurnEvent(
        action=opts.pop("action"),
        **timing,
        k=opts.pop("k"),
        procs=opts.pop("procs", ()),
        clustered=opts.pop("clustered", False),
    )


def parse_churn(spec: str) -> ChurnSchedule:
    """Parse and validate a ``--churn`` spec string.

    Raises :class:`ValueError` with a pointed message on any malformed
    spec — the CLI calls this before running anything.
    """
    if isinstance(spec, ChurnSchedule):
        return spec
    events, settings = parse_spec(spec, "churn", _payload_key, _make_event)
    return ChurnSchedule(events, seed=settings.get("seed"),
                         connectivity=settings.get("connectivity", "preserve"))
