"""Cell-grain group commit: what reaches the store, and when.

``run_specs`` groups its store appends and commits them when a landed
record belongs to another cell than the previous one, when a record lands
``COMMIT_INTERVAL`` seconds or more after the last commit, and before it
returns or raises; in-process, the same check runs before each unit.
Records and store bytes do not depend on the grouping.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.exceptions import NotStabilized
from repro.engine import Campaign, ResultStore, StoreError, run_campaign, run_specs
from repro.engine import pool
from repro.engine.pool import execute_trial
from repro.telemetry.events import MemoryEventSink

SRC = Path(__file__).resolve().parents[2] / "src"

TWO_CELLS = Campaign(
    "commit-test", seed=3, algorithms=("unison",), topologies=("ring",),
    sizes=(6, 8), daemons=("central",), trials=4,
)


def _commits(sink):
    return [e["records"] for e in sink.events if e["event"] == "store_committed"]


class TestStoreGroup:
    def test_group_buffers_until_commit(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with store.group():
            store.append({"key": "a"})
            store.append({"key": "b"})
            assert not store.exists()
            assert store.commit() == 2
            assert [r["key"] for r in store.load()] == ["a", "b"]
            store.append({"key": "c"})
            assert len(store.load()) == 2
        assert [r["key"] for r in store.load()] == ["a", "b", "c"]
        store.append({"key": "d"})  # outside a group: committed at once
        assert len(store.load()) == 4

    def test_exit_commits_when_the_block_raises(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(RuntimeError):
            with store.group():
                store.append({"key": "a"})
                raise RuntimeError("boom")
        assert [r["key"] for r in store.load()] == ["a"]

    def test_groups_do_not_nest(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with store.group():
            with pytest.raises(StoreError):
                with store.group():
                    pass

    def test_grouped_bytes_equal_per_record_bytes(self, tmp_path):
        one, grouped = ResultStore(tmp_path / "1.jsonl"), ResultStore(tmp_path / "g.jsonl")
        records = [{"key": str(i), "value": i} for i in range(5)]
        for record in records:
            one.append(record)
        with grouped.group():
            for record in records:
                grouped.append(record)
        assert one.path.read_bytes() == grouped.path.read_bytes()

    def test_commit_heals_a_torn_tail(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append({"key": "a"})
        with open(store.path, "a") as fh:
            fh.write('{"key": "tor')
        with store.group():
            store.append({"key": "b"})
        assert [r["key"] for r in store.load(strict=True)] == ["a", "b"]


class TestCommitPoints:
    @pytest.mark.parametrize("batch", [False, True])
    def test_one_commit_per_cell(self, tmp_path, monkeypatch, batch):
        monkeypatch.setattr(pool, "_clock", lambda: 0.0)  # never slow
        sink = MemoryEventSink()
        store = ResultStore(tmp_path / "r.jsonl")
        run_specs(TWO_CELLS.specs(), TWO_CELLS.seed, store=store, batch=batch,
                  events=sink)
        assert _commits(sink) == [4, 4]
        assert len(store.load(strict=True)) == 8

    def test_a_slow_trial_commits_at_once(self, tmp_path, monkeypatch):
        ticks = iter(range(0, 10_000))
        monkeypatch.setattr(pool, "_clock", lambda: float(next(ticks)))
        sink = MemoryEventSink()
        store = ResultStore(tmp_path / "r.jsonl")
        landed = []

        def progress(done, total, record):
            landed.append(len(store.load()))

        run_specs(TWO_CELLS.specs(), TWO_CELLS.seed, store=store, batch=False,
                  events=sink, progress=progress)
        assert _commits(sink) == [1] * 8
        assert landed == list(range(1, 9))  # durable before progress fires

    @staticmethod
    def _stored_at_unit_starts(monkeypatch, store):
        """Spy on in-process units: (cell, records stored) as each starts."""
        starts = []
        real = pool._worker

        def spy(args):
            kind, item = args[0], args[1]
            first = item[0] if kind == "batch" else item
            starts.append((first.cell_key(), len(store.load())))
            return real(args)

        monkeypatch.setattr(pool, "_worker", spy)
        return starts

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_finished_cell_is_durable_before_the_next_cell_runs(
            self, tmp_path, monkeypatch, batch):
        monkeypatch.setattr(pool, "_clock", lambda: 0.0)  # never slow
        store = ResultStore(tmp_path / "r.jsonl")
        starts = self._stored_at_unit_starts(monkeypatch, store)
        run_specs(TWO_CELLS.specs(), TWO_CELLS.seed, store=store, batch=batch)
        first_of_each = {}
        for cell, stored in starts:
            first_of_each.setdefault(cell, stored)
        assert list(first_of_each.values()) == [0, 4]

    def test_an_old_record_is_committed_before_the_next_unit(
            self, tmp_path, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(pool, "_clock", lambda: now[0])
        store = ResultStore(tmp_path / "r.jsonl")
        starts = self._stored_at_unit_starts(monkeypatch, store)

        def progress(done, total, record):
            if done == 1:
                now[0] = 1.0  # the interval passes after the first landing

        run_specs(TWO_CELLS.specs(), TWO_CELLS.seed, store=store, batch=False,
                  progress=progress)
        assert [stored for _, stored in starts[:3]] == [0, 1, 1]

    def test_pool_path_commits_before_returning(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        records = run_specs(TWO_CELLS.specs(), TWO_CELLS.seed, store=store,
                            workers=2)
        by_key = lambda r: r["key"]  # noqa: E731 - units land as they finish
        assert sorted(store.load(strict=True), key=by_key) == sorted(records, key=by_key)

    def test_not_stabilized_mid_cell_keeps_earlier_records(self, tmp_path):
        # A cell whose first trial stabilizes within the budget and a
        # later one does not: serially, the first raise ends the sweep.
        for budget in (20, 40, 80, 160, 320, 640):
            campaign = Campaign(
                "mid-cell", seed=11, algorithms=("unison",),
                topologies=("ring",), sizes=(10,), daemons=("central",),
                trials=6, params=(("max_steps", budget),),
            )
            outcomes = []
            for spec in campaign.specs():
                try:
                    execute_trial(spec, campaign.seed, campaign.name)
                    outcomes.append(True)
                except NotStabilized:
                    outcomes.append(False)
            if outcomes[0] and not all(outcomes):
                break
        else:
            pytest.fail("no budget splits the cell")
        first_bad = outcomes.index(False)
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(NotStabilized):
            run_campaign(campaign, store=store, batch=False)
        keys = [spec.key() for spec in campaign.specs()]
        assert [r["key"] for r in store.load(strict=True)] == keys[:first_bad]


KILL_AFTER_FIFTH = textwrap.dedent("""
    import os, signal, sys
    from repro.engine import Campaign, ResultStore, run_campaign

    campaign = Campaign("kill-test", seed=5, algorithms=("unison",),
                        topologies=("ring",), sizes=(8,), trials=10)

    def progress(done, total, record):
        if done == 5:
            os.kill(os.getpid(), signal.SIGKILL)

    run_campaign(campaign, store=ResultStore(sys.argv[1]), batch=False,
                 progress=progress)
""")


def test_sigkill_mid_cell_then_resume_is_byte_identical(tmp_path):
    campaign = Campaign("kill-test", seed=5, algorithms=("unison",),
                        topologies=("ring",), sizes=(8,), trials=10)
    reference = ResultStore(tmp_path / "reference.jsonl")
    run_campaign(campaign, store=reference, batch=False)

    killed = ResultStore(tmp_path / "killed.jsonl")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", KILL_AFTER_FIFTH, str(killed.path)],
        env=env, timeout=120,
    )
    assert proc.returncode == -9
    assert len(killed.load()) <= 5  # nothing past the kill landed
    run_campaign(campaign, store=killed, resume=True, batch=False)
    assert killed.path.read_bytes() == reference.path.read_bytes()


class TestTrialSpans:
    SPAN_NAMES = {"setup.network", "setup.program", "setup.init", "run",
                  "record"}

    @pytest.mark.parametrize("batch", [False, True])
    def test_store_bytes_equal_with_events_on_and_off(self, tmp_path, batch):
        quiet = ResultStore(tmp_path / "quiet.jsonl")
        timed = ResultStore(tmp_path / "timed.jsonl")
        run_campaign(TWO_CELLS, store=quiet, batch=batch)
        sink = MemoryEventSink()
        run_campaign(TWO_CELLS, store=timed, batch=batch, events=sink)
        assert quiet.path.read_bytes() == timed.path.read_bytes()
        finished = [e for e in sink.events if e["event"] == "trial_finished"]
        assert len(finished) == 8
        for event in finished:
            assert set(event["spans"]) == self.SPAN_NAMES
            assert all(v >= 0.0 for v in event["spans"].values())
        assert sum(_commits(sink)) == 8

    def test_no_spans_without_a_sink(self, monkeypatch):
        seen = []
        real = pool._worker

        def spy(args):
            result = real(args)
            seen.append(result[2])
            return result

        monkeypatch.setattr(pool, "_worker", spy)
        run_specs(TWO_CELLS.specs(), TWO_CELLS.seed, batch=False)
        assert seen and all("spans" not in meta for meta in seen)
