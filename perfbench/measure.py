"""One measuring interpreter: set up, run a workload's repetitions, check them.

Started by ``run.py`` in a fresh interpreter (``python -m
perfbench.measure``) with the monotonic time of its launch, so ``setup_s``
covers interpreter start, the ``repro`` import, building the first
campaign and opening its store.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from . import gate, spans
from .reference import Reference
from .workloads import DEFAULT_SEED, WORKLOADS, campaigns

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: stores, span dumps, result files.
WORKDIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench.measure")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() when the interpreter was launched")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--reps", type=int)
    args = p.parse_args(argv)
    if not args.setup_only and args.seconds is None and args.reps is None:
        p.error("--seconds or --reps is required")
    return args


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def pinned_digest(workload: str, smoke: bool) -> str | None:
    pins = json.loads(DIGESTS.read_text())
    return pins["smoke" if smoke else "full"].get(workload)


def run_rep(workload, seed, rep, smoke, tracer, store_dir):
    """One repetition: every campaign of the workload, run and checked."""
    from repro.core.exceptions import NotStabilized
    from repro.engine import ResultStore, run_campaign

    out = {"attempted": 0, "landed": 0, "wall_s": 0.0, "errors": [],
           "records": [], "workers": 0}
    for i, (campaign, run) in enumerate(campaigns(workload, seed, rep, smoke)):
        path = store_dir / f"rep{rep}-{i}.jsonl"
        store = ResultStore(path)
        out["attempted"] += campaign.size
        out["workers"] = max(out["workers"], run["workers"])
        span = tracer.open("campaign", campaign.name) if tracer else None
        start = time.perf_counter()
        try:
            records = run_campaign(campaign, store=store, **run).records
        except NotStabilized as exc:
            records = None
            out["errors"].append(f"{campaign.name} rep {rep}: {exc}")
        finally:
            out["wall_s"] += time.perf_counter() - start
            if span is not None:
                tracer.close(span)
        stored = store.load() if store.exists() else []
        if path.exists():
            path.unlink()
        if records is None:
            # An aborted campaign: what landed is what reached the store.
            out["landed"] += len(stored)
            continue
        out["landed"] += len(records)
        out["records"].extend(records)
        if len(records) != campaign.size:
            out["errors"].append(
                f"{campaign.name} rep {rep}: {len(records)} of "
                f"{campaign.size} records")
        out["errors"].extend(gate.check_store(records, stored))
        for record in records:
            out["errors"].extend(gate.bound_violations(record))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import users pay for)
    from repro.engine import ResultStore
    from repro.telemetry import phases

    import_s = time.perf_counter() - t0

    workload = WORKLOADS[args.workload]
    store_dir = WORKDIR / f"stores-{os.getpid()}"
    store_dir.mkdir(parents=True, exist_ok=True)
    first = campaigns(workload, args.seed, 0, args.smoke)
    ResultStore(store_dir / "rep0-0.jsonl")
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        store_dir.rmdir()
        print(json.dumps({"setup_s": setup_s, "import_s": import_s,
                          "reference_s": Reference().seconds()}))
        return 0

    cpus = os.sched_getaffinity(0)
    if max(run["workers"] for _, run in first) < 2:
        # One core for the whole run: the reference then always times the
        # core the serial workload ran on.
        os.sched_setaffinity(0, {max(cpus)})
    tracer = patches = None
    if args.trace:
        tracer = spans.Tracer()
        patches = spans.install(tracer)
    errors: list[str] = []
    reps: list[dict] = []
    first_digest = None
    workers = 0
    try:
        reference = Reference()
        with phases.recording() if args.trace else nullcontext() as stats:
            before = reference.seconds()
            started = time.monotonic()
            rep = 0
            while (rep < args.reps if args.reps is not None
                   else rep == 0 or time.monotonic() - started < args.seconds):
                out = run_rep(workload, args.seed, rep, args.smoke, tracer,
                              store_dir)
                after = reference.seconds()
                out["reference_s"] = (before + after) / 2
                before = after
                if rep == 0:
                    first_digest = gate.records_digest(out["records"])
                del out["records"]
                errors.extend(out.pop("errors"))
                workers = max(workers, out.pop("workers"))
                reps.append(out)
                rep += 1
            phase_snapshot = stats.snapshot() if stats is not None else None
    finally:
        if patches is not None:
            patches.restore()
        os.sched_setaffinity(0, cpus)
        store_dir.rmdir()

    if args.seed == DEFAULT_SEED:
        pinned = pinned_digest(workload.name, args.smoke)
        if first_digest != pinned:
            errors.append(
                f"{workload.name}: repetition-0 records digest {first_digest} "
                f"!= pinned {pinned} for seed {args.seed}")

    result = {
        "reps": reps,
        "first_digest": first_digest,
        "workers": workers,
        "import_s": import_s,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        wall = sum(r["wall_s"] for r in reps)
        layers = spans.layer_metrics(tracer.spans, phase_snapshot, wall,
                                     os.getpid())
        result["layers"] = layers
        errors.extend(liveness_errors(workload, tracer.spans, layers,
                                      phase_snapshot, workers))
        WORKDIR.mkdir(exist_ok=True)
        dump = WORKDIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with dump.open("w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        result["spans_file"] = str(dump.relative_to(ROOT))
    result["errors"] = errors
    print(json.dumps(result))
    return 0


def liveness_errors(workload, recorded, layers, phase_snapshot,
                    workers) -> list[str]:
    """Every wrapper the workload is expected to hit must have fired."""
    counts = spans.span_counts(recorded)
    expects = list(workload.expects)
    if workers < 2:
        expects = [name for name in expects if name != "pool.wait"]
    errors = [
        f"{workload.name}: traced wrapper {name!r} recorded no calls"
        for name in expects if not counts.get(name)
    ]
    if workers >= 2 and not layers["pool.worker_units"]:
        errors.append(f"{workload.name}: no spans came back from pool workers")
    if not (phase_snapshot or {}).get("phases"):
        errors.append(f"{workload.name}: phase telemetry recorded nothing")
    return errors


if __name__ == "__main__":
    sys.exit(main())
