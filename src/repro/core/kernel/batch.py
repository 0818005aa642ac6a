"""Batched multi-trial execution: a trial axis on the state columns.

A campaign cell — one ``(algorithm, topology, n, scenario, daemon)``
combination — differs across its replicate trials only in the seed.  This
module runs all ``T`` replicates as *one* simulation over tiled columns:
trial ``t`` owns the process block ``[t·n, (t+1)·n)`` of a block-diagonal
adjacency (:meth:`~repro.core.kernel.csr.CSRAdjacency.tile`), so one
guard evaluation, one rule application, and one accounting pass serve
every trial per step.  Only the daemons stay per-trial: each trial draws
from its *own* seeded ``Random`` stream in exactly the serial order, so
every trial's trajectory — selections, moves, rounds, stopping step — is
identical to its serial run, record for record.

Trials stop independently (convergence mask, terminal block, or budget)
and freeze: a frozen block receives no further selections, so its columns
and accounting stay exactly at the stopping configuration while the rest
of the batch runs on.  Rounds follow the neutralization definition per
block, mirroring :class:`~repro.core.rounds.ArrayRoundCounter`.
"""

from __future__ import annotations

from functools import partial
from random import Random
from typing import Callable, Mapping, Sequence

import numpy as np

from ...faults.timing import Disturbances
from ...telemetry import phases as telemetry
from ..exceptions import ModelViolation, UnbatchableError
from .daemons import open_stream, vectorize
from .engine import MoveAccumulator, dispatch_rules, exclusion_offender
from .programs import KernelProgram

__all__ = ["TrialOutcome", "BatchResult", "run_batch"]

Columns = Mapping[str, np.ndarray]
UntilFn = Callable[[KernelProgram, Columns], np.ndarray]


class TrialOutcome:
    """Accounting of one trial of a batch, frozen at its stopping step."""

    __slots__ = ("steps", "moves", "rounds", "moves_per_process",
                 "moves_per_rule", "stop_reason", "hit")

    def __init__(self, steps, moves, rounds, moves_per_process,
                 moves_per_rule, stop_reason, hit):
        self.steps = steps
        self.moves = moves
        self.rounds = rounds
        self.moves_per_process = moves_per_process
        self.moves_per_rule = moves_per_rule
        self.stop_reason = stop_reason
        self.hit = hit

    def __repr__(self) -> str:
        return (
            f"TrialOutcome(steps={self.steps}, moves={self.moves}, "
            f"rounds={self.rounds}, stop_reason={self.stop_reason!r})"
        )


class BatchResult:
    """Per-trial outcomes plus access to the final configurations."""

    __slots__ = ("outcomes", "_schema", "_columns", "_n")

    def __init__(self, outcomes, schema, columns, n):
        self.outcomes: list[TrialOutcome] = outcomes
        self._schema = schema
        self._columns = columns
        self._n = n

    def configuration(self, trial: int):
        """Trial's final configuration (decoded, trial-local indices)."""
        return self._schema.decode_block(self._columns, trial, self._n)


def run_batch(
    program: KernelProgram,
    cfgs: Sequence,
    daemons: Sequence,
    rngs: Sequence[Random],
    network,
    *,
    max_steps: int,
    until: UntilFn | None = None,
    exclusion_name: str | None = None,
    probes: Sequence[Sequence] | None = None,
    faults: Sequence | None = None,
) -> BatchResult:
    """Run ``len(cfgs)`` trials of one cell as a single tiled simulation.

    ``cfgs``/``daemons``/``rngs`` are per-trial: the initial
    configuration, a fresh dict daemon instance (state bridged into its
    vector twin), and the trial's seeded generator.  ``until`` is an
    optional per-process convergence mask ``until(tiled_program, cols)``;
    a trial freezes with ``stop_reason="predicate"`` the first time its
    block satisfies it everywhere (initial configuration included).
    ``probes`` (optional) carries one sequence of vector-tier
    :class:`repro.probes.Probe` instances *per trial*; each trial's
    probes see its block of the tiled buffers as a
    :class:`repro.probes.ColumnView` (base program + block-sliced
    columns, so per-trial semantics match a single run) once at the
    start and after every step the trial executes, and a probe's
    ``done()`` freezes its trial with ``stop_reason="probe"``.
    ``faults`` (optional) carries one bound
    :class:`~repro.faults.schedule.BoundFaultSchedule` (or ``None``) per
    trial, polled trial by trial by the serial drivers' one disturbance
    rule (:class:`~repro.faults.timing.Disturbances`): occurrences corrupt
    the trial's block in place (``opt_index`` values globalized by the
    block offset, like :meth:`Schema.encode_tiled`), its round
    bookkeeping is rebased and its probes get ``on_fault`` —
    byte-identical to the same schedule on a single run.  Bound
    schedules are stateful: pass a fresh binding per trial.
    Raises :class:`~repro.core.exceptions.UnbatchableError` when the
    program or a daemon cannot be vectorized — callers catch exactly
    that and fall back to serial trials.

    Heavy-tailed cells are *compacted*: once the trailing trials of the
    batch have all frozen, their blocks are dropped from the working
    buffers (the tiled program is re-tiled to the surviving prefix), so
    guard evaluation stops paying for finished trials.  Frozen blocks
    keep their stopping configuration — compaction is invisible in the
    results.
    """
    trials = len(cfgs)
    n = len(cfgs[0])
    total = trials * n
    prog = program.tiled(trials)
    if prog is None:
        raise UnbatchableError(
            "program does not support tiled (batched) execution"
        )
    vecs = [vectorize(daemon, network) for daemon in daemons]
    if any(vec is None for vec in vecs):
        raise UnbatchableError(
            "daemon cannot be vectorized for batched execution"
        )
    for vec, daemon in zip(vecs, daemons):
        vec.load_state(daemon)
    streams = [
        open_stream(rng, scalar=vec.scalar_stream) if vec.uses_rng else None
        for vec, rng in zip(vecs, rngs)
    ]

    schema, rules = program.schema, program.rules
    nrules = len(rules)
    # ``full_read``/``full_write`` are the complete tiled buffers (what
    # BatchResult decodes from); ``read``/``write`` are the *working*
    # buffers — the same dicts until compaction, prefix views afterwards.
    # The pairs swap in tandem every step so they always correspond.
    full_read = schema.encode_tiled(cfgs)
    full_write = {name: col.copy() for name, col in full_read.items()}
    read, write = full_read, full_write
    column_pairs = (
        [(read[name], write[name]) for name in read],
        [(write[name], read[name]) for name in read],
    )
    flip = 0

    #: Leading blocks still in the working buffers (compaction shrinks it).
    blocks = trials
    block_starts = np.arange(trials, dtype=np.int64) * n
    block_bounds = np.arange(trials + 1, dtype=np.int64) * n

    rule_idx = np.empty(total, dtype=np.int8)
    rule_counts = [0] * nrules
    only_rule = [0 if nrules == 1 else -1]
    #: ``step_memo[0]``: the step memo of the last guard pass over the
    #: working ``read`` buffers (fresh per pass, dropped at compaction),
    #: handed to the actions that step from exactly that configuration.
    step_memo: list[dict | None] = [None]

    def compute_enabled() -> np.ndarray:
        memo: dict = {}
        masks = prog.guard_masks(read, memo=memo)
        step_memo[0] = memo
        enabled, only, grand = dispatch_rules(masks, rules, rule_idx, rule_counts)
        only_rule[0] = only
        if (
            exclusion_name is not None
            and only == -2
            and grand != int(np.count_nonzero(enabled))
        ):
            offender, offending = exclusion_offender(
                masks, rules, rule_idx.shape[0]
            )
            raise ModelViolation(
                f"{exclusion_name}: rules {offending} simultaneously enabled "
                f"at process {offender % n} (trial {offender // n}), but the "
                "algorithm declares mutual exclusion"
            )
        return enabled

    # Per-trial accounting ------------------------------------------------
    steps = [0] * trials
    moves = [0] * trials
    completed = [0] * trials
    stop_reason = [""] * trials
    hit = [False] * trials
    rule_hist = np.zeros((trials, nrules), dtype=np.int64)
    acc = MoveAccumulator(total)
    active = list(range(trials))

    pending = np.zeros(total, dtype=np.bool_)
    scratch = np.empty(total, dtype=np.bool_)
    round_open = [False] * trials

    def freeze(trial: int, reason: str, converged: bool = False) -> None:
        stop_reason[trial] = reason
        hit[trial] = converged

    # Per-trial probe views (base program + block-sliced columns, so a
    # probe observes its trial exactly as it would a single run).
    views = None
    if probes is not None:
        if len(probes) != trials:
            raise ValueError(
                f"probes must align with cfgs: {len(probes)} != {trials}"
            )
        if any(probes):
            from ...probes.view import ColumnView

            views = [
                ColumnView(program, trial=t) if probes[t] else None
                for t in range(trials)
            ]

    #: ``opt_index`` columns hold *globalized* indices in a tiled layout;
    #: block views re-localize them so probes see trial-local process
    #: indices, exactly as in a single run.
    opt_index_cols = tuple(
        var.name for var in schema.vars if var.kind == "opt_index"
    )

    #: ``(trial, schedule, occurrences)`` fired since the last guard pass.
    fired: list[tuple[int, object, list]] = []
    schema_vars = {var.name: var for var in schema.vars}

    def disturb(t: int, sched, due) -> None:
        """Apply trial ``t``'s fired occurrences to its block in place.

        Guards are recomputed lazily, once for every trial disturbed in
        the same poll (:func:`settle`).
        """
        lo = int(block_bounds[t])
        for occ in due:
            for u, name, value in occ.assignments:
                code = schema_vars[name].encode_value(value)
                if lo and name in opt_index_cols and code >= 0:
                    code += lo
                read[name][lo + u] = code
        fired.append((t, sched, due))

    def settle() -> None:
        """Recompute guards after disturbances; rebase and notify."""
        nonlocal enabled_mask
        if not fired:
            return
        enabled_mask = compute_enabled()
        for t, sched, due in fired:
            rebase_rounds(t)
            if probes is not None and probes[t]:
                for occ in due:
                    sched.notify(probes[t], occ, steps[t], moves[t],
                                 completed[t])
        fired.clear()

    def terminal(t: int) -> bool:
        settle()
        return not enabled_mask[block_bounds[t]:block_bounds[t + 1]].any()

    clocks = None
    if faults is not None and any(sched is not None for sched in faults):
        if len(faults) != trials:
            raise ValueError(
                f"faults must align with cfgs: {len(faults)} != {trials}"
            )
        clocks = [
            Disturbances((sched,), partial(disturb, t), partial(terminal, t))
            for t, sched in enumerate(faults)
        ]

    def rebase_rounds(t: int) -> None:
        """Per-block twin of :meth:`ArrayRoundCounter.rebase`."""
        lo, hi = block_bounds[t], block_bounds[t + 1]
        block = enabled_mask[lo:hi]
        pend_block = pending[lo:hi]
        if not round_open[t]:
            pend_block[:] = block
            round_open[t] = bool(block.any())
            return
        pend_block &= block
        if pend_block.any():
            return
        completed[t] += 1
        pend_block[:] = block
        round_open[t] = bool(block.any())

    def observe(t: int, phase: str, chosen_local, chosen_kinds=None) -> bool:
        """Show trial ``t``'s block to its probes; ``True`` = freeze it."""
        view = views[t]
        if view is None:
            return False
        lo = t * n
        hi = lo + n
        view.phase = phase
        cols = {name: col[lo:hi] for name, col in read.items()}
        if lo:
            for name in opt_index_cols:
                block = cols[name]
                cols[name] = np.where(block >= 0, block - lo, block)
        view.cols = cols
        view.chosen = chosen_local
        view.enabled_mask = enabled_mask[lo:hi]
        view.chosen_rules = chosen_kinds
        # dispatch_rules only materializes rule_idx in the multi-rule
        # case; the single-rule fast path leaves it stale.
        view.rule_idx = rule_idx[lo:hi] if only_rule[0] == -2 else None
        view.steps = steps[t]
        view.moves = moves[t]
        view.rounds = completed[t]
        stop = False
        for probe in probes[t]:
            probe.on_columns(view)
            stop = probe.done() or stop
        return stop

    # Telemetry: resolved once per batch, never per step.  Disabled costs
    # one boolean test per iteration; enabled, one iteration in every
    # ``stats.stride`` is timed phase by phase.  Compaction is rare, so
    # it is timed exactly on every occurrence instead of sampled.
    stats = telemetry.collector()
    tel = stats is not None
    if tel:
        smask, ttimes, tcounts = stats.mask, stats.times, stats.counts
        T_DAEMON, T_APPLY, T_GUARD, T_ROUNDS, T_PROBE, T_COMPACT = (
            telemetry.DAEMON, telemetry.APPLY, telemetry.GUARD,
            telemetry.ROUNDS, telemetry.PROBE, telemetry.COMPACT,
        )
    iteration = 0

    try:
        enabled_mask = compute_enabled()
        pending[:] = enabled_mask
        pend_any = np.logical_or.reduceat(pending, block_starts)
        for t in range(trials):
            round_open[t] = bool(pend_any[t])
        if views is not None:
            for t in list(active):
                if observe(t, "start", None):
                    freeze(t, "probe")
                    active.remove(t)
        if until is not None:
            hit_all = np.logical_and.reduceat(until(prog, read), block_starts)
            for t in list(active):
                if hit_all[t]:
                    freeze(t, "predicate", True)
                    active.remove(t)

        while active:
            enabled_any = np.logical_or.reduceat(enabled_mask, block_starts)
            if clocks is not None:
                for t in active:
                    if steps[t] >= clocks[t].next_due:
                        clocks[t].fire_due(steps[t])
                if fired:
                    settle()
                    enabled_any = np.logical_or.reduceat(
                        enabled_mask, block_starts
                    )
                for t in active:
                    if not enabled_any[t] and clocks[t].live:
                        while clocks[t].pull_forward(steps[t]) and terminal(t):
                            pass
                        enabled_any[t] = not terminal(t)
            for t in list(active):
                if not enabled_any[t]:
                    freeze(t, "terminal")
                    active.remove(t)
                elif steps[t] >= max_steps:
                    freeze(t, "budget")
                    active.remove(t)
            if not active:
                break

            # Compaction: once the trailing quarter (at least) of the
            # working blocks is frozen, drop those blocks — guard masks,
            # selections, and round bookkeeping then stop paying for
            # finished trials.  ``active`` is kept in ascending order, so
            # its last element bounds the surviving prefix.
            lim = active[-1] + 1
            if lim <= blocks - max(1, blocks >> 2):
                if tel:
                    t_compact = telemetry.timer()
                cut = lim * n
                # Land the dropped blocks' frozen state in *both* buffer
                # parities: neither is ever written beyond ``cut`` again,
                # so the final decode is parity-independent.
                for name in full_read:
                    full_write[name][cut:] = full_read[name][cut:]
                read = {name: col[:cut] for name, col in full_read.items()}
                write = {name: col[:cut] for name, col in full_write.items()}
                column_pairs = (
                    [(read[name], write[name]) for name in read],
                    [(write[name], read[name]) for name in read],
                )
                flip = 0
                blocks = lim
                block_starts = np.arange(blocks, dtype=np.int64) * n
                block_bounds = np.arange(blocks + 1, dtype=np.int64) * n
                retiled = program.tiled(blocks)
                if retiled is not None:  # tiled(trials) succeeded above
                    prog = retiled
                step_memo[0] = None  # sized for the dropped blocks
                rule_idx = rule_idx[:cut]
                pending = pending[:cut]
                scratch = scratch[:cut]
                enabled_mask = enabled_mask[:cut]
                if tel:
                    ttimes[T_COMPACT] += telemetry.timer() - t_compact
                    tcounts[T_COMPACT] += 1

            sampling = tel and (iteration & smask) == 0
            iteration += 1
            if sampling:
                t_mark = telemetry.timer()
            enabled_idx = enabled_mask.nonzero()[0]
            bounds = np.searchsorted(enabled_idx, block_bounds)
            parts = []
            stepped = list(active) if views is not None else None
            local_parts = [] if views is not None else None
            kinds_parts = [] if views is not None else None
            k0 = only_rule[0]
            for t in active:
                local = enabled_idx[bounds[t] : bounds[t + 1]] - block_starts[t]
                chosen_local = vecs[t].select(local, streams[t])
                parts.append(chosen_local + block_starts[t])
                if local_parts is not None:
                    local_parts.append(chosen_local)
                    # Captured pre-apply, while rule_idx still holds the
                    # dispatch this step executes (fancy indexing copies).
                    kinds_parts.append(
                        rule_idx[chosen_local + block_starts[t]]
                        if k0 == -2
                        else np.full(chosen_local.shape[0], k0, dtype=np.int8)
                    )
                steps[t] += 1
                moves[t] += chosen_local.shape[0]
            chosen = parts[0] if len(parts) == 1 else np.concatenate(parts)
            acc.add(chosen)
            if sampling:
                t_now = telemetry.timer()
                ttimes[T_DAEMON] += t_now - t_mark
                tcounts[T_DAEMON] += 1
                t_mark = t_now

            for src, dst in column_pairs[flip]:
                dst[:] = src
            memo = step_memo[0]
            k = only_rule[0]
            if k >= 0:
                prog.apply(rules[k], chosen, read, write, memo)
                rule_hist[:, k] += np.bincount(chosen // n, minlength=trials)
            else:
                kinds = rule_idx[chosen]
                for k in range(nrules):
                    if rule_counts[k] == 0:
                        continue
                    idx = chosen[kinds == k]
                    if idx.shape[0]:
                        prog.apply(rules[k], idx, read, write, memo)
                        rule_hist[:, k] += np.bincount(
                            idx // n, minlength=trials
                        )
            read, write = write, read
            full_read, full_write = full_write, full_read
            flip ^= 1
            if sampling:
                t_now = telemetry.timer()
                ttimes[T_APPLY] += t_now - t_mark
                tcounts[T_APPLY] += 1
                t_mark = t_now

            prev_mask = enabled_mask
            enabled_mask = compute_enabled()
            if sampling:
                t_now = telemetry.timer()
                ttimes[T_GUARD] += t_now - t_mark
                tcounts[T_GUARD] += 1
                t_mark = t_now

            # Rounds: one neutralization update per block.  Frozen blocks
            # are untouched (no selection, enabled set unchanged).
            pending[chosen] = False
            np.logical_not(enabled_mask, out=scratch)
            scratch &= prev_mask
            np.logical_not(scratch, out=scratch)
            pending &= scratch
            pend_any = np.logical_or.reduceat(pending, block_starts)
            for t in active:
                if round_open[t] and not pend_any[t]:
                    completed[t] += 1
                    lo, hi = block_bounds[t], block_bounds[t + 1]
                    block = enabled_mask[lo:hi]
                    pending[lo:hi] = block
                    round_open[t] = bool(block.any())
            if sampling:
                t_now = telemetry.timer()
                ttimes[T_ROUNDS] += t_now - t_mark
                tcounts[T_ROUNDS] += 1
                t_mark = t_now

            if views is not None:
                for t, chosen_local, chosen_kinds in zip(
                    stepped, local_parts, kinds_parts
                ):
                    if observe(t, "step", chosen_local, chosen_kinds):
                        freeze(t, "probe")
                        active.remove(t)
                if sampling:
                    ttimes[T_PROBE] += telemetry.timer() - t_mark
                    tcounts[T_PROBE] += 1

            if until is not None:
                hit_all = np.logical_and.reduceat(
                    until(prog, read), block_starts
                )
                for t in list(active):
                    if hit_all[t]:
                        freeze(t, "predicate", True)
                        active.remove(t)
    finally:
        for stream in streams:
            if stream is not None:
                stream.close()
    for vec, daemon in zip(vecs, daemons):
        vec.store_state(daemon)

    acc.flush()
    moves_per_process = acc.counts.reshape(trials, n)
    outcomes = [
        TrialOutcome(
            steps=steps[t],
            moves=moves[t],
            rounds=completed[t],
            moves_per_process=tuple(int(c) for c in moves_per_process[t]),
            moves_per_rule={
                rules[k]: int(rule_hist[t, k])
                for k in range(nrules)
                if rule_hist[t, k]
            },
            stop_reason=stop_reason[t],
            hit=hit[t],
        )
        for t in range(trials)
    ]
    return BatchResult(outcomes, schema, full_read, n)
