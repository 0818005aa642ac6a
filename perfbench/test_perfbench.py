"""Tests of the benchmark itself: metric names and units, the digest and
bound gate, and wrapper liveness.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gate, measure, spans
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _campaign_records(**grid):
    from repro.engine import Campaign, run_campaign

    campaign = Campaign("perfbench-test", seed=3, topology_seed=3, **grid)
    return run_campaign(campaign, workers=0).records


@pytest.fixture(scope="module")
def unison_records():
    return _campaign_records(algorithms=("unison",), sizes=(6,), trials=2)


@pytest.fixture(scope="module")
def fault_records():
    return _campaign_records(
        algorithms=("fga",), sizes=(6,), trials=2,
        params=(("faults", "burst=20,count=2,gap=60,k=1"),),
    )


@pytest.fixture(scope="module")
def smoke():
    """``run.py --smoke``: every workload's miniature grid, both modes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    reports = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            report = json.loads(line)
            reports[report["workload"]] = report
    return proc, reports


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_workloads_and_every_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    produced = set(spans.layer_metrics([], None, 1.0, os.getpid()))
    produced |= {"setup.import_s", "tracing.overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} == produced
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_prints_every_metric_with_its_unit(smoke):
    proc, reports = smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(reports) == set(WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for report in reports.values():
        assert report["correct"] and report["failed"] == 0
        got = {k: v["unit"] for k, v in report["metrics"].items()}
        assert got == units
    for name in units:
        assert any(line.split()[:1] == [name] and line.split()[-1] == units[name]
                   for line in proc.stdout.splitlines())
    assert "failed_frac 0.0 ratio" in proc.stdout


def test_smoke_collects_pool_worker_spans(smoke):
    _, reports = smoke
    pooled = reports["recovery-pooled"]["metrics"]
    assert pooled["pool.worker_units"]["value"] == pooled["pool.units"]["value"] > 0
    assert pooled["pool.wait_s"]["value"] > 0
    assert pooled["faults.occurrences"]["value"] > 0
    assert pooled["kernel.batch_lane_util"]["value"] > 0


# ----------------------------------------------------------------------
# Digest and bound gate
# ----------------------------------------------------------------------
def test_records_pass_the_bounds(unison_records, fault_records):
    for record in unison_records + fault_records:
        assert gate.bound_violations(record) == []


def test_digest_is_order_and_content_sensitive(unison_records):
    digest = gate.records_digest(unison_records)
    assert gate.records_digest(copy.deepcopy(unison_records)) == digest
    assert gate.records_digest(unison_records[::-1]) != digest
    perturbed = copy.deepcopy(unison_records)
    perturbed[0]["result"]["moves"] += 1
    assert gate.records_digest(perturbed) != digest


def test_a_round_bound_violation_fails_the_gate(unison_records):
    record = copy.deepcopy(unison_records[0])
    record["result"]["rounds"] = 3 * record["result"]["n"] + 1
    assert any("rounds > bound" in v for v in gate.bound_violations(record))


def test_an_unrecovered_burst_fails_the_gate(fault_records):
    record = copy.deepcopy(fault_records[0])
    record["result"]["extra"]["recovery"]["recovered"] -= 1
    assert any("bursts recovered" in v for v in gate.bound_violations(record))


def test_store_readback_must_match(unison_records):
    assert gate.check_store(unison_records, unison_records[::-1]) == []
    assert gate.check_store(unison_records, unison_records[:1]) != []


def _measure_errors(capsys, *extra):
    assert measure.main([
        "--workload", "unison-rings-serial", "--seed", "1", "--smoke",
        "--reps", "1", "--launched", "0", *extra,
    ]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])["errors"]


def test_pinned_digest_passes_and_a_perturbed_record_fails(capsys, monkeypatch):
    assert _measure_errors(capsys) == []

    import repro.engine

    real = repro.engine.run_campaign

    def perturbed(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcome.records[0]["result"]["rounds"] += 10**6
        return outcome

    monkeypatch.setattr(repro.engine, "run_campaign", perturbed)
    errors = _measure_errors(capsys)
    assert any("!= pinned" in e for e in errors)
    assert any("rounds > bound" in e for e in errors)
    assert any("store holds" in e for e in errors)


# ----------------------------------------------------------------------
# Wrapper liveness
# ----------------------------------------------------------------------
def _traced_serial_campaign(store_path, unwrap=None):
    from repro.engine import Campaign, ResultStore, run_campaign
    from repro.telemetry import phases

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        if unwrap is not None:
            unwrap()
        with phases.recording() as stats:
            run_campaign(Campaign("perfbench-test", seed=5, sizes=(6,),
                                  trials=2), store=ResultStore(store_path),
                         workers=0, batch=False)
        return tracer.spans, stats.snapshot()
    finally:
        patches.restore()


def _liveness(workload, recorded, snapshot):
    layers = spans.layer_metrics(recorded, snapshot, 1.0, os.getpid())
    return measure.liveness_errors(WORKLOADS[workload], recorded, layers,
                                   snapshot, 0)


def test_install_restores_every_binding():
    import repro.core.graph
    import repro.engine.pool
    import repro.harness.runner

    before = (repro.harness.runner.by_name, repro.engine.pool._worker,
              repro.engine.pool.multiprocessing,
              repro.core.graph.Network.__dict__["diameter"])
    spans.install(spans.Tracer()).restore()
    after = (repro.harness.runner.by_name, repro.engine.pool._worker,
             repro.engine.pool.multiprocessing,
             repro.core.graph.Network.__dict__["diameter"])
    assert after == before


def test_liveness_passes_when_every_expected_wrapper_fires(tmp_path):
    recorded, snapshot = _traced_serial_campaign(tmp_path / "store.jsonl")
    assert _liveness("unison-rings-serial", recorded, snapshot) == []
    assert {s["rid"] for s in recorded if s["name"] == "kernel.run"} == {
        s["rid"] for s in recorded if s["name"] == "harness.trial"}


def test_liveness_fails_when_a_call_site_bypasses_its_wrapper(tmp_path):
    import repro.harness.runner
    import repro.topology

    def moved():
        # What a refactor that calls the generator through another
        # binding looks like from outside.
        repro.harness.runner.by_name = repro.topology.by_name

    recorded, snapshot = _traced_serial_campaign(tmp_path / "store.jsonl",
                                                 unwrap=moved)
    errors = _liveness("unison-rings-serial", recorded, snapshot)
    assert errors == [
        "unison-rings-serial: traced wrapper 'topology.build' recorded no calls"
    ]
    # A serial run never reaches the batched driver the FGA workload needs.
    assert any("'kernel.batch'" in e for e in
               _liveness("fga-dense-batched", recorded, snapshot))


def test_self_time_subtracts_children():
    recorded = [
        {"id": "1.1", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "1.2", "parent": "1.1", "start": 1.0, "end": 4.0},
        {"id": "1.3", "parent": "1.1", "start": 5.0, "end": 6.0},
        {"id": "1.4", "parent": "1.2", "start": 2.0, "end": 3.0},
    ]
    assert spans.self_times(recorded) == {
        "1.1": 6.0, "1.2": 2.0, "1.3": 1.0, "1.4": 1.0,
    }
