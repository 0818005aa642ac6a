"""Timing wrappers installed from outside the program, and the layer metrics
derived from the spans they record.

:func:`install` replaces, for the life of one traced run, each public call
into a layer with a wrapper that records a span — name, start, end, parent
span and request id (the trial key) — into a :class:`Tracer`.  Every wrapper
patches the binding where its caller looks it up at call time: ``by_name``
in ``repro.harness.runner`` (imported there by name), ``run_trial`` and
``run_trial_batch`` in ``repro.harness.runner`` (imported lazily by the
pool), ``run_batch`` in ``repro.core.kernel.batch`` (imported lazily by the
runner), and methods on their classes.  Spans stay in memory until the run
ends.

Pool workers are forked, so they inherit the wrappers.  The wrapped
``repro.engine.pool._worker`` hands the spans a worker recorded for one
execution unit back to the parent inside the unit's ``meta`` dict, and the
wrapped ``multiprocessing.Pool`` (seen by ``repro.engine.pool`` only) takes
them out again while timing how long the parent waits for each result.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Any, Callable, Iterable

#: ``meta`` key that carries a worker's spans back to the parent.
SHIPPED = "perfbench_spans"


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self) -> None:
        self._origin = os.getpid()
        self.pid = self._origin
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next = 0

    @property
    def forked(self) -> bool:
        """Whether this copy lives in a process forked after creation."""
        return os.getpid() != self._origin

    def open(self, name: str, rid: str | None = None) -> dict:
        if os.getpid() != self.pid:
            # A forked pool worker inherits the parent's spans and open
            # stack; its own spans start from scratch.
            self.pid = os.getpid()
            self.spans = []
            self._stack = []
        parent = self._stack[-1] if self._stack else None
        self._next += 1
        span = {
            "name": name,
            "id": f"{self.pid}.{self._next}",
            "parent": parent["id"] if parent is not None else None,
            "rid": rid if rid is not None else (
                parent["rid"] if parent is not None else None
            ),
            "pid": self.pid,
            "start": time.perf_counter(),
        }
        self._stack.append(span)
        return span

    def close(self, span: dict, **attrs: Any) -> None:
        span["end"] = time.perf_counter()
        span.update(attrs)
        # Pop through the span (an exception may have skipped inner closes).
        while self._stack:
            if self._stack.pop() is span:
                break
        self.spans.append(span)

    def record(self, name: str, start: float, **attrs: Any) -> None:
        """A closed leaf span that started at ``start`` and ends now."""
        span = self.open(name)
        span["start"] = start
        self.close(span, **attrs)

    def take_unit(self, mark: int) -> list[dict]:
        """Remove and return the spans recorded since ``mark``."""
        out = self.spans[mark:]
        del self.spans[mark:]
        return out


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
class Patches:
    """The bindings :func:`install` replaced, for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _timed(tracer: Tracer, name: str, fn: Callable,
           rid: Callable[..., str | None] | None = None,
           attrs: Callable[..., dict] | None = None) -> Callable:
    """``fn`` wrapped in a span; ``attrs(result, *args)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, rid(*args, **kwargs) if rid else None)
        extra: dict = {}
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(result, *args, **kwargs)
            return result
        finally:
            tracer.close(span, **extra)

    return wrapper


def _fused_counts(result, runtime, *args, **kwargs) -> dict:
    return {
        "steps": int(result.steps),
        "moves": int(result.moves),
        "n": int(runtime._rule_idx.shape[0]),
    }


def _batch_counts(result, program, cfgs, daemons, rngs, network,
                  **kwargs) -> dict:
    return {
        "lane_steps": [int(o.steps) for o in result.outcomes],
        "moves": int(sum(o.moves for o in result.outcomes)),
        "n": int(network.n),
    }


def _traced_pop_due(tracer: Tracer, fn: Callable) -> Callable:
    # Called once per step per faulted trial by the batched driver, so it
    # records a span only when an occurrence actually fires.
    @functools.wraps(fn)
    def pop_due(self, step, idle=False):
        start = time.perf_counter()
        due = fn(self, step, idle)
        if due:
            tracer.record("faults.pop_due", start, occurrences=len(due))
        return due

    return pop_due


def _traced_diameter(tracer: Tracer, prop: property) -> property:
    fget = prop.fget

    @functools.wraps(fget)
    def diameter(self):
        span = tracer.open("graph.diameter")
        miss = self._diameter is None
        try:
            return fget(self)
        finally:
            tracer.close(span, miss=miss)

    return property(diameter, doc=prop.__doc__)


def _traced_worker(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def _worker(args):
        kind, payload = args[0], args[1]
        first = payload[0] if kind == "batch" else payload
        span = tracer.open(
            "pool.unit",
            first.cell_key() if kind == "batch" else first.key(),
        )
        mark = len(tracer.spans)  # after open: a forked worker resets them
        meta: dict = {}
        try:
            result = fn(args)
            meta = result[2]
        finally:
            tracer.close(
                span, kind=kind, fallback=bool(meta.get("fallback", False)),
                trials=len(payload) if kind == "batch" else 1,
            )
        if tracer.forked:
            meta[SHIPPED] = tracer.take_unit(mark)
        return result

    return _worker


class _TracedPool:
    """A ``multiprocessing.Pool`` whose result stream is timed."""

    def __init__(self, pool, tracer: Tracer) -> None:
        self._pool = pool
        self._tracer = tracer

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def imap_unordered(self, func, iterable, chunksize=1):
        results = self._pool.imap_unordered(func, iterable, chunksize)
        tracer = self._tracer
        while True:
            span = tracer.open("pool.wait")
            try:
                result = next(results)
            except StopIteration:
                tracer.close(span)
                return
            tracer.close(span)
            tracer.spans.extend(result[2].pop(SHIPPED, ()))
            yield result


class _PoolModule:
    """Stands in for ``multiprocessing`` inside ``repro.engine.pool``."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def Pool(self, *args, **kwargs):  # noqa: N802 - mirrors the real name
        return _TracedPool(self._real.Pool(*args, **kwargs), self._tracer)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer boundary; returns what to restore."""
    runner = importlib.import_module("repro.harness.runner")
    graph = importlib.import_module("repro.core.graph")
    kernelc = importlib.import_module("repro.ir.kernelc")
    simulator = importlib.import_module("repro.core.simulator")
    engine = importlib.import_module("repro.core.kernel.engine")
    batch = importlib.import_module("repro.core.kernel.batch")
    schedule = importlib.import_module("repro.faults.schedule")
    churn = importlib.import_module("repro.faults.churn")
    store = importlib.import_module("repro.engine.store")
    pool = importlib.import_module("repro.engine.pool")

    patches = Patches()

    def wrap(owner, attr, name, **how):
        patches.replace(owner, attr, _timed(tracer, name, getattr(owner, attr), **how))

    wrap(runner, "by_name", "topology.build")
    wrap(runner, "run_trial", "harness.trial",
         rid=lambda spec, *a, **k: spec.key())
    wrap(runner, "run_trial_batch", "harness.batch",
         rid=lambda specs, *a, **k: specs[0].cell_key())
    wrap(kernelc, "compile_rule_set", "ir.compile")
    wrap(simulator.Simulator, "__init__", "simulator.init")
    wrap(engine.KernelRuntime, "run", "kernel.run", attrs=_fused_counts)
    wrap(batch, "run_batch", "kernel.batch", attrs=_batch_counts)
    wrap(schedule.FaultSchedule, "bind", "faults.bind")
    wrap(churn.ChurnSchedule, "bind", "faults.bind")
    wrap(store.ResultStore, "append", "store.append",
         attrs=lambda result, st, record: {"bytes": _line_bytes(record)})
    patches.replace(graph.Network, "diameter",
                    _traced_diameter(tracer, graph.Network.__dict__["diameter"]))
    for bound in (schedule.BoundFaultSchedule, churn.BoundChurnSchedule):
        patches.replace(bound, "pop_due", _traced_pop_due(tracer, bound.pop_due))
    patches.replace(pool, "_worker", _traced_worker(tracer, pool._worker))
    patches.replace(pool, "multiprocessing", _PoolModule(pool.multiprocessing, tracer))
    return patches


def _line_bytes(record) -> int:
    return len(json.dumps(record, sort_keys=True, separators=(",", ":"))) + 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def self_times(spans: Iterable[dict]) -> dict[str, float]:
    """Per span id: duration minus the time its child spans cover.

    Children run inside their parent on one process, one at a time, so
    their intervals do not overlap and their durations simply add.
    """
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent in own:
            own[parent] -= s["end"] - s["start"]
    return own


def _sum(spans, name, field=None):
    if field is None:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    return sum(s.get(field, 0) for s in spans if s["name"] == name)


def span_counts(spans: Iterable[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in spans:
        counts[s["name"]] = counts.get(s["name"], 0) + 1
    return counts


def layer_metrics(spans: list[dict], phases: dict | None, wall_s: float,
                  root_pid: int) -> dict[str, float]:
    """Per-layer totals over one traced run (see ``BENCHMARK.json``)."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def self_of(*names):
        return sum(own[s["id"]] for n in names for s in by_name.get(n, ()))

    fused = by_name.get("kernel.run", [])
    batches = by_name.get("kernel.batch", [])
    run_s = _sum(spans, "kernel.run") + _sum(spans, "kernel.batch")
    steps = sum(s.get("steps", 0) for s in fused) + sum(
        sum(s.get("lane_steps", ())) for s in batches
    )
    evaluated = sum(s.get("steps", 0) * s.get("n", 0) for s in fused) + sum(
        sum(s.get("lane_steps", ())) * s.get("n", 0) for s in batches
    )
    moves = sum(s.get("moves", 0) for s in fused + batches)
    lane_slots = sum(
        max(s["lane_steps"]) * len(s["lane_steps"])
        for s in batches if s.get("lane_steps")
    )
    shares = (phases or {}).get("phases", {})

    def share(phase):
        return float(shares.get(phase, {}).get("share", 0.0))

    units = by_name.get("pool.unit", [])
    out = {
        "topology.build_s": _sum(spans, "topology.build"),
        "graph.diameter_s": _sum(spans, "graph.diameter"),
        "graph.diameter_misses": sum(
            1 for s in by_name.get("graph.diameter", ()) if s.get("miss")
        ),
        "ir.compile_s": _sum(spans, "ir.compile"),
        "ir.compiles": len(by_name.get("ir.compile", ())),
        "simulator.init_self_s": self_of("simulator.init"),
        "harness.trial_self_s": self_of("harness.trial", "harness.batch"),
        "kernel.run_s": run_s,
        "kernel.steps": steps,
        "kernel.steps_per_s": steps / run_s if run_s > 0 else 0.0,
        "kernel.guard_share": share("guard"),
        "kernel.apply_share": share("apply"),
        "kernel.daemon_share": share("daemon"),
        "kernel.rounds_share": share("rounds"),
        "kernel.probe_share": share("probe"),
        "kernel.compact_share": share("compact"),
        "kernel.active_frac": moves / evaluated if evaluated else 0.0,
        "kernel.batch_lane_util": (
            sum(sum(s["lane_steps"]) for s in batches) / lane_slots
            if lane_slots else 0.0
        ),
        "faults.bind_s": _sum(spans, "faults.bind"),
        "faults.occurrences": _sum(spans, "faults.pop_due", "occurrences"),
        "store.append_s": _sum(spans, "store.append"),
        "store.appends": len(by_name.get("store.append", ())),
        "store.bytes": _sum(spans, "store.append", "bytes"),
        "pool.wait_s": _sum(spans, "pool.wait"),
        "pool.units": len(units),
        "pool.batch_units": sum(1 for s in units if s.get("kind") == "batch"),
        "pool.fallbacks": sum(1 for s in units if s.get("fallback")),
        "pool.worker_units": sum(1 for s in units if s["pid"] != root_pid),
    }
    # Shares of the parent's campaign wall time: the setup layers against
    # the simulation (worker time is parallel, so pooled shares can add
    # up to more than one).
    for name in ("topology.build_s", "graph.diameter_s", "ir.compile_s",
                 "simulator.init_self_s", "harness.trial_self_s",
                 "kernel.run_s", "store.append_s"):
        out[name[:-2] + "_wall_share"] = out[name] / wall_s if wall_s else 0.0
    return out
