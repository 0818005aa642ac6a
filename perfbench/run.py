"""Campaign benchmark: trials/s of whole ``run_campaign`` grids, with layers.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # miniature grids, all workloads

Each run starts fresh interpreters (``perfbench.measure``): one warm-up that
compiles bytecode, ``SETUP_SAMPLES`` that stop right before the first
``run_campaign`` call (their median is ``setup_s``), then the measuring
one.  ``--trace 0`` measures for ``S`` seconds and reports the end-to-end
metrics; ``--trace 1`` measures untraced for ``S/2`` seconds, repeats the
same repetitions under the timing wrappers of :mod:`perfbench.spans`, and
reports the per-layer metrics.  Times are in reference seconds (see
:mod:`perfbench.reference`); the plain wall-clock figures are printed too
and kept in ``.perfbench/result-*.json`` with the run's provenance.  The
last stdout line is one JSON object; the exit code is non-zero when any
record digest, bound, store read-back or wrapper-liveness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.reference import REFERENCE_S  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5
#: Whole-command deadline: the benchmark must end within 180 seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A measuring interpreter failed or produced no result."""


def _measure(deadline: float, *args: str) -> dict:
    """Run ``perfbench.measure`` in a fresh interpreter; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "perfbench.measure", *args,
           "--launched", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measuring interpreter timed out: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"measuring interpreter exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _throughput(reps: list[dict], scaled: bool = True) -> float:
    """Trials landed per second of ``run_campaign`` wall time.

    ``scaled`` counts each repetition's wall time in reference seconds
    (see :mod:`perfbench.reference`), which takes out the host's drift.
    """
    wall = sum(
        r["wall_s"] * (REFERENCE_S / r["reference_s"] if scaled else 1.0)
        for r in reps
    )
    return sum(r["landed"] for r in reps) / wall


def _overhead(untraced: list[dict], traced: list[dict]) -> float:
    """1 − traced ÷ untraced trials/s over the same repetitions.

    Repetition 0 is left out when there are others: the untraced
    interpreter pays the program's lazy imports inside it, the traced one
    before it (installing the wrappers imports the wrapped modules).
    """
    if len(untraced) > 1:
        untraced, traced = untraced[1:], traced[1:]
    return 1 - _throughput(traced) / _throughput(untraced)


def provenance(workers: int) -> dict:
    """What was measured: the exact source tree, toolchain and machine."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    versions = {"python": sys.version.split()[0]}
    for dist in ("numpy", "networkx", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "src_sha256": digest.hexdigest(),
        **_git(),
        "versions": versions,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
    }


def _git() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=20, check=True).stdout

    try:
        if Path(git("rev-parse", "--show-toplevel").strip()) != ROOT:
            raise ValueError("not this checkout's repository")
        return {"git_sha": git("rev-parse", "HEAD").strip(),
                "git_dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, deadline: float) -> dict:
    """Measure one workload; returns metrics, counts and errors."""
    common = ["--workload", name, "--seed", str(seed)] + (
        ["--smoke"] if smoke else [])
    if not smoke:
        _measure(deadline, *common, "--setup-only")  # warm-up: bytecode
    samples = [_measure(deadline, *common, "--setup-only")
               for _ in range(1 if smoke else SETUP_SAMPLES)]
    scales = [REFERENCE_S / s["reference_s"] for s in samples]
    budget = ["--reps", "1"] if smoke else [
        "--seconds", repr(seconds / 2 if trace else seconds)]
    untraced = _measure(deadline, *common, *budget)
    results = [untraced]
    report = {
        "workload": name,
        "trials_per_s": _throughput(untraced["reps"]),
        "setup_s": statistics.median(
            s["setup_s"] * k for s, k in zip(samples, scales)),
        "peak_rss_mb": untraced["peak_rss_mb"],
        "trials_per_s_wall": _throughput(untraced["reps"], scaled=False),
        "setup_s_wall": statistics.median(s["setup_s"] for s in samples),
        "reference_s": statistics.median(
            r["reference_s"] for r in untraced["reps"]),
        "workers": untraced["workers"],
        "reps": untraced["reps"],
    }
    if trace:
        traced = _measure(deadline, *common, "--trace",
                          "--reps", str(len(untraced["reps"])))
        results.append(traced)
        scale = REFERENCE_S / statistics.mean(
            r["reference_s"] for r in traced["reps"])
        units = _layer_units()
        layers = {}
        for key, value in traced["layers"].items():
            if units.get(key) == "s":
                value *= scale
            elif units.get(key) == "1/s":
                value /= scale
            layers[key] = value
        layers["setup.import_s"] = statistics.median(
            s["import_s"] * k for s, k in zip(samples, scales))
        layers["tracing.overhead"] = _overhead(untraced["reps"], traced["reps"])
        report["layers"] = layers
        report["spans_file"] = traced["spans_file"]
    report["attempted"] = sum(r["attempted"] for res in results
                              for r in res["reps"])
    report["failed"] = report["attempted"] - sum(
        r["landed"] for res in results for r in res["reps"])
    report["errors"] = [e for res in results for e in res["errors"]]
    return report


def _layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _metrics(report: dict, trace: bool) -> dict:
    if trace:
        units = _layer_units()
        return {k: {"value": report["layers"][k], "unit": u}
                for k, u in units.items()}
    return {k: {"value": report[k], "unit": u}
            for k, u in END_TO_END_UNITS.items()}


def _print_report(report: dict, metrics: dict) -> None:
    print(f"workload {report['workload']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"failed_frac {failed_frac!r} ratio")
    # The same run in plain wall seconds, and the reference time it was
    # scaled by.
    print(f"trials_per_s_wall {report['trials_per_s_wall']!r} 1/s")
    print(f"setup_s_wall {report['setup_s_wall']!r} s")
    print(f"reference_s {report['reference_s']!r} s")
    for error in report["errors"]:
        print(f"ERROR {error}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="miniature grids of every workload, traced and not")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required (or --smoke)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return _smoke(args.seed, deadline)
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), False, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = _metrics(report, bool(args.trace))
    report["provenance"] = provenance(report["workers"])
    report["seed"] = args.seed
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print(f"provenance {json.dumps(report['provenance'], sort_keys=True)}")
    _print_report(report, metrics)
    correct = not report["errors"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _smoke(seed: int, deadline: float) -> int:
    """Miniature grids of every workload, untraced and traced."""
    ok = True
    for name in WORKLOADS:
        report = run_workload(name, seed, 0.0, True, True, deadline)
        metrics = {**_metrics(report, False), **_metrics(report, True)}
        _print_report(report, metrics)
        ok &= not report["errors"]
        print(json.dumps({"workload": name, "correct": not report["errors"],
                          "attempted": report["attempted"],
                          "failed": report["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
