"""Provenance manifests: which code/config/hardware produced a result.

Result stores are deliberately deterministic — no timestamps, hostnames,
or versions in the records, so the same campaign yields byte-identical
stores everywhere.  That determinism makes the records *comparable* but
not *explainable*: when a benchmark row regresses or two stores of the
same grid disagree, the first question is always "what code, on what
machine, against which numpy?".  Manifests answer it from a sidecar file
(``results.jsonl`` → ``results.manifest.json``) so the answer never
contaminates the records themselves.

Manifest fields (all best-effort — a field whose probe fails is null,
never an exception):

``schema``            manifest schema version (1)
``created_at``        ISO-8601 UTC creation time
``git``               ``{"sha": ..., "dirty": bool, "branch": ...}``
``src_sha256``        SHA-256 of the source tree that ran (:func:`src_sha256`)
``compiled_tier``     the C tier this process used: the compiler's version
                      line and whether each object was a cache ``hit`` or
                      a ``build`` (:func:`repro.ir.ccbuild.provenance`)
``versions``          python + repro + numpy (and scipy when present)
``numpy_config``      blas/lapack linkage summary from numpy
``host``              platform string, machine, cpu count, hostname
``campaign``          name/seed/size/``grid_hash`` of the campaign, if any
``phase_stats``       telemetry phase breakdown, if collection was on
``extra``             caller-supplied context (bench grid, CLI args, …)

:func:`grid_hash` is the campaign identity: a SHA-256 over the master
seed and every trial key, so two manifests agree on it iff their
campaigns expand to the same trials with the same seeds.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "git_info",
    "grid_hash",
    "src_sha256",
    "manifest_path_for",
    "read_manifest",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1


def manifest_path_for(path: str | os.PathLike) -> Path:
    """The sidecar manifest path for a store or benchmark report.

    ``results.jsonl`` → ``results.manifest.json``;
    ``BENCH_core.json`` → ``BENCH_core.manifest.json``.
    """
    path = Path(path)
    return path.with_name(path.stem + ".manifest.json")


def grid_hash(campaign: Any) -> str:
    """SHA-256 identity of a campaign's expanded grid.

    Covers the master seed and the sorted canonical trial keys — i.e.
    exactly what determines the result records.  Anything that changes a
    key (a new axis value, a renamed param) changes the hash; execution
    options, worker counts, and batching do not.
    """
    digest = hashlib.sha256()
    digest.update(f"seed={campaign.seed}".encode())
    for key in sorted(campaign.keys()):
        digest.update(b"\x00")
        digest.update(key.encode())
    return digest.hexdigest()


def git_info(cwd: str | os.PathLike | None = None) -> dict | None:
    """``{"sha", "dirty", "branch"}`` of the enclosing checkout, or None."""

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ("git", *args),
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return None
    status = git("status", "--porcelain")
    return {
        "sha": sha,
        "dirty": bool(status) if status is not None else None,
        "branch": git("rev-parse", "--abbrev-ref", "HEAD"),
    }


def src_sha256() -> str | None:
    """SHA-256 of the ``repro`` source tree this process imported.

    The recipe of ``perfbench/run.py``: every file under ``src/`` (the
    package directory itself when installed elsewhere), in sorted path
    order, ``__pycache__`` skipped, each hashed as its path relative to
    the checkout root, a NUL byte, then its bytes.  So a manifest pins
    the exact code that produced its rows, committed or not.
    """
    package = Path(__file__).resolve().parents[1]
    top = package.parent if package.parent.name == "src" else package
    root = top.parent
    digest = hashlib.sha256()
    try:
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode() + b"\0")
                digest.update(path.read_bytes())
    except OSError:
        return None
    return digest.hexdigest()


def _compiled_tier() -> dict | None:
    try:
        from ..ir.ccbuild import provenance
    except ImportError:  # pragma: no cover - the tier is part of repro.ir
        return None
    return provenance()


def _versions() -> dict:
    versions: dict[str, str | None] = {
        "python": platform.python_version(),
    }
    for module_name in ("repro", "numpy", "scipy"):
        try:
            module = __import__(module_name)
        except ImportError:
            continue
        versions[module_name] = getattr(module, "__version__", None)
    return versions


def _numpy_config() -> dict | None:
    """A compact summary of numpy's build configuration (BLAS linkage)."""
    try:
        import numpy as np

        config = np.show_config(mode="dicts")
    except Exception:
        return None
    try:
        deps = config.get("Build Dependencies", {})
        return {
            dep: {
                "name": info.get("name"),
                "version": info.get("version"),
                "found": info.get("found"),
            }
            for dep, info in deps.items()
            if isinstance(info, dict)
        } or None
    except AttributeError:
        return None


def _host() -> dict:
    try:
        hostname = socket.gethostname()
    except OSError:
        hostname = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "hostname": hostname,
    }


def build_manifest(
    *,
    campaign: Any | None = None,
    phase_stats: dict | None = None,
    extra: dict | None = None,
    cwd: str | os.PathLike | None = None,
) -> dict:
    """Assemble a manifest dict describing the current run environment.

    ``campaign`` (a :class:`repro.engine.campaign.Campaign`) contributes
    its identity block; ``phase_stats`` is a telemetry snapshot (from
    :func:`repro.telemetry.phases.snapshot` or a merged worker
    breakdown); ``extra`` is arbitrary caller context stored verbatim.
    """
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "created_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "git": git_info(cwd),
        "src_sha256": src_sha256(),
        "compiled_tier": _compiled_tier(),
        "versions": _versions(),
        "numpy_config": _numpy_config(),
        "host": _host(),
        "argv": list(sys.argv),
        "campaign": None,
        "phase_stats": phase_stats,
        "extra": extra or {},
    }
    if campaign is not None:
        manifest["campaign"] = {
            "name": campaign.name,
            "seed": campaign.seed,
            "size": campaign.size,
            "grid_hash": grid_hash(campaign),
        }
    return manifest


def write_manifest(
    target_path: str | os.PathLike,
    manifest: dict,
) -> Path:
    """Write ``manifest`` as the sidecar of ``target_path``; return its path.

    The write is atomic (temp file + ``os.replace``) so a concurrent
    reader never sees a half-written manifest.
    """
    path = manifest_path_for(target_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, path)
    return path


def read_manifest(target_path: str | os.PathLike) -> dict | None:
    """Load the sidecar manifest of a store/report, or None if absent.

    ``target_path`` may be the store/report itself or the manifest file.
    """
    path = Path(target_path)
    if path.suffix != ".json" or not path.name.endswith(".manifest.json"):
        path = manifest_path_for(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
