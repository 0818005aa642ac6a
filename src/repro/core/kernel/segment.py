"""Compiled fused segments: the C tier of :meth:`KernelRuntime.run`.

:class:`Segment` hands whole stretches of fused steps to the C driver
generated by :mod:`repro.ir.cc` (built and cached by
:mod:`repro.ir.ccbuild`) through :mod:`ctypes`.  The driver keeps the
enabled bitset, the multi-rule count the exclusion check needs, the
:class:`~repro.core.rounds.ArrayRoundCounter` pending bits and the
watched predicate's false count incrementally, re-evaluating guards and
the predicate only on the read-radius ball of each step's movers.

:meth:`Segment.open` decides eligibility once per run.  A run is served
when the program is IR-generated and lowers to C with no pointer
``gather`` in its guards or the watched predicate, the daemon is the
central, synchronous or distributed-random twin (drawing from an
exact-type :class:`random.Random`), every probe is a
:class:`~repro.probes.StabilizationProbe` or
:class:`~repro.probes.StopProbe` on one of the program's predicates,
``until`` (when given) is such a predicate too — one predicate at most —
and a compiler is available; :meth:`KernelRuntime.run` then calls
:meth:`Segment.step` while no process has crashed (no liveness column).
Everything else stays on the numpy loop, with identical results.
"""

from __future__ import annotations

import ctypes
from random import Random

import numpy as np

from ...telemetry.phases import PHASES
from .daemons import VectorCentral, VectorDistributedRandom, VectorSynchronous

__all__ = ["Segment", "Rows", "CONTINUE", "EVENT", "EXCLUSION"]

#: Driver return codes (``segment.c``): the caller resumes its loop; the
#: last step reached the watched predicate and is not yet observed; the
#: last step made declared-exclusive rules overlap (the caller's numpy
#: guard pass raises the violation); a pointer gather left its column;
#: no memory for the workspace.
CONTINUE, EVENT, EXCLUSION, ERROR, NOMEM = range(5)

_DAEMONS = {VectorSynchronous: 0, VectorCentral: 1, VectorDistributedRandom: 2}

_P = ctypes.c_void_p
_I = ctypes.c_int64


class _Seg(ctypes.Structure):
    """Mirror of ``seg_t`` in ``segment.c``."""

    _fields_ = [
        ("n", _I), ("indptr", _P), ("indices", _P), ("cols", _P),
        ("params", _P), ("k", _P), ("err", _I),
        ("daemon", _I), ("p", ctypes.c_double), ("mt", _P), ("mt_pos", _I),
        ("draws", _I),
        ("budget", _I), ("check_exclusion", _I), ("watch", _I),
        ("stop_on_hold", _I),
        ("pending", _P), ("rounds_completed", _I), ("has_pending", _I),
        ("moves_per_process", _P), ("moves_per_rule", _P), ("steps", _I),
        ("moves", _I), ("observed", _I), ("violations", _I),
        ("last_chosen", _P), ("last_kinds", _P), ("last_count", _I),
        ("tel_mask", _I), ("tel_base", _I), ("tel_times", _P),
        ("tel_counts", _P),
    ]


def _predicate(program, fn) -> str | None:
    """The name of the program's predicate ``fn`` is the mask of."""
    if getattr(fn, "__self__", None) is not program:
        return None
    func = getattr(fn, "__func__", None)
    for name, pred in program._code.pred_fns.items():
        if pred is func:
            return name
    return None


def _binding(program):
    """An IR program's C lowering (:func:`repro.ir.cc.bind`), or ``None``."""
    from ...ir.kernelc import IRKernelProgram

    if not isinstance(program, IRKernelProgram) or program._copies != 1:
        return None
    from ...ir.cc import NotLowerable

    try:
        return program.c_binding()
    except NotLowerable:
        return None


def _load(binding):
    """The binding's shared object, its entry points typed on first load."""
    from ...ir import ccbuild

    lib = ccbuild.load(binding.code.source)
    if lib is not None and lib.repro_segment.argtypes is None:
        seg = ctypes.POINTER(_Seg)
        lib.repro_segment.restype = _I
        lib.repro_segment.argtypes = [seg]
        lib.repro_row_guards.restype = _I
        lib.repro_row_guards.argtypes = [seg, _I, _I, ctypes.POINTER(_I)]
        lib.repro_row_action.restype = None
        lib.repro_row_action.argtypes = [seg, _I, _I, ctypes.POINTER(_I)]
    return lib


class Segment:
    """The compiled driver bound to one :meth:`KernelRuntime.run` call."""

    __slots__ = ("runtime", "rng", "rounds", "probes", "until", "lib",
                 "seg", "uses_rng", "mt", "rule_moves", "chosen", "kinds",
                 "cols", "_keep", "tel_times", "tel_counts")

    @classmethod
    def open(cls, runtime, daemon, rng, until, rounds, probes,
             check_exclusion: bool, acc) -> "Segment | None":
        """A segment for this run, or ``None`` to keep the numpy loop."""
        from ...probes.stabilization import StabilizationProbe, StopProbe
        from ..rounds import ArrayRoundCounter

        kind = _DAEMONS.get(type(daemon))
        if kind is None:
            return None
        uses_rng = daemon.uses_rng
        if uses_rng and type(rng) is not Random:
            return None
        if rounds is not None and type(rounds) is not ArrayRoundCounter:
            return None
        program = runtime.program
        watched = set()
        if until is not None:
            watched.add(_predicate(program, until))
        for probe in probes:
            if type(probe) not in (StabilizationProbe, StopProbe):
                return None
            watched.add(_predicate(program, probe._mask_fn))
        if None in watched or len(watched) > 1:
            return None
        binding = _binding(program)
        if binding is None:
            return None
        code = binding.code
        watch = code.predicates.index(watched.pop()) if watched else -1
        if not code.bounded[watch]:
            return None  # a pointer gather: no bounded wake ball
        lib = _load(binding)
        if lib is None:
            return None
        seg = cls.__new__(cls)
        seg.runtime, seg.rng, seg.rounds = runtime, rng, rounds
        seg.probes, seg.until = tuple(probes), until
        seg.lib, seg.uses_rng = lib, uses_rng
        n = runtime._rule_idx.shape[0]
        seg.mt = np.zeros(624, dtype=np.uint32)
        seg.rule_moves = np.zeros(code.nrules, dtype=np.int64)
        seg.chosen = np.zeros(n, dtype=np.int64)
        seg.kinds = np.zeros(n, dtype=np.int8)
        seg.cols = (_P * max(code.ncols, 1))()
        params = (_P * max(len(binding.params), 1))(
            *[arr.ctypes.data for arr in binding.params])
        seg.tel_times = np.zeros(len(PHASES), dtype=np.float64)
        seg.tel_counts = np.zeros(len(PHASES), dtype=np.int64)
        s = seg.seg = _Seg()
        s.n = n
        s.params = ctypes.cast(params, _P)
        s.k = binding.consts.ctypes.data
        s.daemon = kind
        s.p = float(getattr(daemon, "p", 0.0))
        s.mt = seg.mt.ctypes.data
        s.check_exclusion = int(check_exclusion)
        s.watch = watch
        s.moves_per_process = acc.counts.ctypes.data
        s.moves_per_rule = seg.rule_moves.ctypes.data
        s.last_chosen = seg.chosen.ctypes.data
        s.last_kinds = seg.kinds.ctypes.data
        s.tel_times = seg.tel_times.ctypes.data
        s.tel_counts = seg.tel_counts.ctypes.data
        # Everything the struct points into stays alive with the segment.
        seg._keep = (binding, params)
        return seg

    def step(self, budget: int, steps: int, stats) -> int:
        """Run up to ``budget`` steps; the driver's return code.

        ``steps`` is the run's step count so far (the telemetry stride
        clock) and ``stats`` the telemetry collector or ``None``.  The
        budget shrinks to the end of any hit probe's ``run_past``
        suffix, and the driver returns at the first configuration where
        the watched predicate holds everywhere while a probe awaits its
        hit or an ``until`` is set (``EVENT``: that step is left for the
        caller to observe).  Hit probes get the suffix steps the driver
        observed.  The read columns, the round counter, the per-process
        move counts and the ``Random`` are updated in place; ``seg``
        holds the stretch's step and move counts, ``rule_moves`` its
        per-rule moves.
        """
        hit = [probe for probe in self.probes if probe.hit]
        for probe in hit:
            left = probe.suffix_left()
            if left is not None:
                budget = min(budget, left)
        stop_on_hold = self.until is not None or len(hit) < len(self.probes)
        runtime, s = self.runtime, self.seg
        csr = runtime.program.csr
        read = runtime.read
        cols = self.cols
        for i, var in enumerate(runtime.program.schema.vars):
            cols[i] = read[var.name].ctypes.data
        s.cols = ctypes.cast(cols, _P)
        s.indptr = csr.indptr.ctypes.data
        s.indices = csr.indices.ctypes.data
        s.err = s.draws = 0
        s.steps = s.moves = s.observed = s.violations = s.last_count = 0
        s.budget = budget
        s.stop_on_hold = int(stop_on_hold)
        rounds = self.rounds
        if rounds is not None:
            s.pending = rounds._pending.ctypes.data
            s.rounds_completed = rounds.completed
            s.has_pending = int(rounds._has_pending)
        else:
            s.pending = None
        if stats is not None:
            s.tel_mask, s.tel_base = stats.mask, steps
        else:
            s.tel_mask = -1
        self.rule_moves.fill(0)
        if self.uses_rng:
            _, internal, gauss = self.rng.getstate()
            self.mt[:] = internal[:-1]
            s.mt_pos = internal[-1]
        code = self.lib.repro_segment(ctypes.byref(s))
        if s.draws:
            self.rng.setstate(
                (3, tuple(self.mt.tolist()) + (int(s.mt_pos),), gauss))
        if rounds is not None:
            rounds.completed = int(s.rounds_completed)
            rounds._has_pending = bool(s.has_pending)
        if stats is not None:
            for phase in range(len(PHASES)):
                stats.times[phase] += float(self.tel_times[phase])
                stats.counts[phase] += int(self.tel_counts[phase])
            self.tel_times.fill(0.0)
            self.tel_counts.fill(0)
        for probe in hit:
            probe.observe_suffix(int(s.observed), int(s.violations))
        if code == NOMEM:
            raise MemoryError("compiled segment workspace")
        if code == ERROR:
            raise IndexError(
                "pointer gather index out of bounds for axis 0 with size "
                f"{s.n}"
            )
        return code

    def last_step(self):
        """``(chosen, chosen_kinds)`` of the last step the driver ran."""
        count = self.seg.last_count
        return self.chosen[:count].copy(), self.kinds[:count].copy()


class Rows:
    """A program's compiled per-row functions over fixed columns.

    The lint (``python -m repro.ir check``) evaluates the C guards,
    predicates and actions one process at a time against the numpy
    kernel.  ``None`` from :meth:`open` means no compiled tier.
    """

    __slots__ = ("code", "lib", "seg", "_keep")

    @classmethod
    def open(cls, program, cols) -> "Rows | None":
        binding = _binding(program)
        lib = None if binding is None else _load(binding)
        if lib is None:
            return None
        rows = cls.__new__(cls)
        rows.code, rows.lib = binding.code, lib
        names = [var.name for var in program.schema.vars]
        columns = (_P * max(len(names), 1))(
            *[cols[name].ctypes.data for name in names])
        params = (_P * max(len(binding.params), 1))(
            *[arr.ctypes.data for arr in binding.params])
        s = rows.seg = _Seg()
        s.n = program.csr.n
        s.indptr = program.csr.indptr.ctypes.data
        s.indices = program.csr.indices.ctypes.data
        s.cols = ctypes.cast(columns, _P)
        s.params = ctypes.cast(params, _P)
        s.k = binding.consts.ctypes.data
        rows._keep = (binding, cols, columns, params)
        return rows

    def guards(self, u: int, predicate: str | None = None):
        """``(enabled-rule bitmask, predicate value or None)`` at ``u``."""
        watch = -1 if predicate is None else self.code.predicates.index(predicate)
        pred = _I(0)
        bits = self.lib.repro_row_guards(ctypes.byref(self.seg), u, watch,
                                         ctypes.byref(pred))
        return bits & ((1 << 64) - 1), (None if watch < 0 else bool(pred.value))

    def action(self, u: int, rule: int) -> list[int]:
        """The encoded registers ``u`` holds after executing ``rule``."""
        out = (_I * max(self.code.ncols, 1))()
        self.lib.repro_row_action(ctypes.byref(self.seg), u, rule, out)
        return list(out[: self.code.ncols])
