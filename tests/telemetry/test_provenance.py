"""Provenance manifests: identity capture, sidecar round-trip, grid hashing."""

import hashlib
import json
import pathlib
import re

from repro.engine import Campaign
from repro.telemetry.provenance import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    git_info,
    grid_hash,
    manifest_path_for,
    read_manifest,
    write_manifest,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

CAMPAIGN = Campaign(
    "prov-test", seed=11, algorithms=("unison",), topologies=("ring",),
    sizes=(5,), scenarios=("random",), trials=2,
)


class TestGridHash:
    def test_same_campaign_same_hash(self):
        assert grid_hash(CAMPAIGN) == grid_hash(CAMPAIGN)

    def test_seed_changes_the_hash(self):
        other = Campaign(
            "prov-test", seed=12, algorithms=("unison",),
            topologies=("ring",), sizes=(5,), scenarios=("random",), trials=2,
        )
        assert grid_hash(other) != grid_hash(CAMPAIGN)

    def test_grid_changes_the_hash(self):
        other = Campaign(
            "prov-test", seed=11, algorithms=("unison",),
            topologies=("ring",), sizes=(5, 7), scenarios=("random",), trials=2,
        )
        assert other.seed == CAMPAIGN.seed
        assert grid_hash(other) != grid_hash(CAMPAIGN)

    def test_hash_is_hex_sha256(self):
        assert re.fullmatch(r"[0-9a-f]{64}", grid_hash(CAMPAIGN))


class TestBuildManifest:
    def test_core_fields(self):
        manifest = build_manifest(campaign=CAMPAIGN, cwd=REPO_ROOT)
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["campaign"]["name"] == "prov-test"
        assert manifest["campaign"]["seed"] == 11
        assert manifest["campaign"]["size"] == CAMPAIGN.size
        assert manifest["campaign"]["grid_hash"] == grid_hash(CAMPAIGN)
        assert "python" in manifest["versions"]
        assert "numpy" in manifest["versions"]
        assert manifest["created_at"].endswith("+00:00")

    def test_git_identity_of_this_repo(self):
        info = git_info(cwd=REPO_ROOT)
        if info is None:  # tolerated: tarball checkouts have no .git
            return
        assert re.fullmatch(r"[0-9a-f]{40}", info["sha"])
        assert isinstance(info["dirty"], bool)

    def test_phase_stats_and_extra_ride_along(self):
        manifest = build_manifest(
            phase_stats={"stride": 16, "phases": {}, "total_est_s": 0.0},
            extra={"benchmark": "bench"},
            cwd=REPO_ROOT,
        )
        assert manifest["phase_stats"]["stride"] == 16
        assert manifest["extra"]["benchmark"] == "bench"
        assert manifest["campaign"] is None

    def test_src_sha256_follows_the_perfbench_recipe(self):
        digest = hashlib.sha256()
        for path in sorted((REPO_ROOT / "src").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO_ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
        manifest = build_manifest(cwd=REPO_ROOT)
        assert manifest["src_sha256"] == digest.hexdigest()

    def test_compiled_tier_is_recorded(self):
        tier = build_manifest(cwd=REPO_ROOT)["compiled_tier"]
        assert set(tier) == {"compiler", "objects", "cache", "refused"}
        assert set(tier["cache"]) <= {"hit", "build"}

    def test_manifest_is_json_safe(self):
        manifest = build_manifest(campaign=CAMPAIGN, cwd=REPO_ROOT)
        json.dumps(manifest)  # must not raise


class TestSidecarRoundTrip:
    def test_write_read_next_to_store(self, tmp_path):
        store = tmp_path / "results.jsonl"
        manifest = build_manifest(campaign=CAMPAIGN, cwd=REPO_ROOT)
        write_manifest(store, manifest)
        sidecar = manifest_path_for(store)
        assert sidecar.name == "results.manifest.json"
        assert sidecar.exists()
        # Readable via either the store path or the manifest path.
        assert read_manifest(store) == manifest
        assert read_manifest(sidecar) == manifest

    def test_missing_manifest_reads_as_none(self, tmp_path):
        assert read_manifest(tmp_path / "absent.jsonl") is None

    def test_rewrite_is_atomic_replacement(self, tmp_path):
        store = tmp_path / "r.jsonl"
        write_manifest(store, build_manifest(cwd=REPO_ROOT))
        second = build_manifest(campaign=CAMPAIGN, cwd=REPO_ROOT)
        write_manifest(store, second)
        assert read_manifest(store)["campaign"]["name"] == "prov-test"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
