"""Correctness gate: record digests and the paper's bounds.

The digest is over ``CampaignOutcome.records`` in grid order, never over
the store file: ``run_campaign`` appends records in completion order, so a
pooled run's file bytes differ from run to run while its records do not.

Every record is checked against :mod:`repro.analysis.bounds` the way the
experiments check them: a cold-start U∘SDR trial within ``3n`` rounds and
Theorem 6's move bound, a cold-start FGA∘SDR trial within ``8n+4`` rounds
and Theorem 12's move bound, and a disturbance trial (fault or churn
schedule) with every burst recovered and every clean per-burst recovery
(no injection mid-recovery, as T11/T12 define it) within the cold-start
round bound.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def records_digest(records: Iterable[dict]) -> str:
    """SHA-256 over the canonical JSON lines of ``records``, in order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(canonical(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _clean_worst_rounds(summary: dict) -> int | None:
    """Worst rounds over bursts with no injection mid-recovery."""
    bursts = summary["records"]
    worst = None
    for i, rec in enumerate(bursts):
        if not rec["recovered"]:
            continue
        end = rec["injected_step"] + rec["steps"]
        if i + 1 < len(bursts) and bursts[i + 1]["injected_step"] < end:
            continue
        worst = rec["rounds"] if worst is None else max(worst, rec["rounds"])
    return worst


def bound_violations(record: dict) -> list[str]:
    """What in one store record breaks the paper's bounds (empty: none)."""
    from repro.analysis import bounds

    spec, result = record["spec"], record["result"]
    n, m = result["n"], result["m"]
    algorithm = spec["algorithm"]
    if algorithm == "unison":
        rounds_bound = bounds.unison_rounds_bound(n)
        moves_bound = bounds.unison_move_bound(n, result["diameter"])
    elif algorithm == "fga":
        rounds_bound = bounds.fga_sdr_rounds_bound(n)
        moves_bound = bounds.fga_sdr_move_bound(n, m, result["max_degree"])
    else:
        return [f"{record['key']}: no bound known for {algorithm!r}"]

    key = record["key"]
    params = spec.get("params", {})
    if "faults" in params or "churn" in params:
        summary = result["extra"]["recovery"]
        bad = []
        if summary["recovered"] != summary["bursts"]:
            bad.append(f"{key}: {summary['recovered']} of "
                       f"{summary['bursts']} bursts recovered")
        clean = _clean_worst_rounds(summary)
        if clean is not None and clean > rounds_bound:
            bad.append(f"{key}: clean recovery took {clean} rounds "
                       f"> bound {rounds_bound}")
        final = result["extra"].get("churn_final")
        if final is not None and final["components"] != 1:
            bad.append(f"{key}: churn left {final['components']} components")
        return bad

    bad = []
    if result["rounds"] > rounds_bound:
        bad.append(f"{key}: {result['rounds']} rounds > bound {rounds_bound}")
    if result["moves"] > moves_bound:
        bad.append(f"{key}: {result['moves']} moves > bound {moves_bound}")
    return bad


def check_store(records: list[dict], stored: list[dict]) -> list[str]:
    """The store must hold exactly the outcome's records (any order)."""
    want = sorted(canonical(r) for r in records)
    have = sorted(canonical(r) for r in stored)
    if want != have:
        return [f"store holds {len(have)} records that differ from the "
                f"{len(want)} the campaign returned"]
    return []
