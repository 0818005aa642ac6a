"""``run_trial`` builds each campaign cell's network, algorithm and kernel
program once and reuses them for the cell's trials."""

import numpy as np
import pytest

from repro.engine.campaign import Campaign, TrialSpec
from repro.engine.pool import execute_trial
from repro.harness import runner
from repro.harness.runner import run_trial, run_unison_trial
from repro.ir import kernelc
from repro.topology import by_name

CHURN = "every=10,count=2,crash=1"


@pytest.fixture
def spy(monkeypatch):
    """Start with no kept cell; record every network build and the cell
    each trial ran in."""
    monkeypatch.setattr(runner, "_cell", None)
    builds, cells = [], []
    real_by_name, real_cell = runner.by_name, runner._trial_cell

    def by_name_spy(*args, **kwargs):
        net = real_by_name(*args, **kwargs)
        builds.append(net)
        return net

    def cell_spy(*args, **kwargs):
        cell = real_cell(*args, **kwargs)
        cells.append(cell)
        return cell

    monkeypatch.setattr(runner, "by_name", by_name_spy)
    monkeypatch.setattr(runner, "_trial_cell", cell_spy)
    return builds, cells


def _spec(n=12, topology_seed=3, trial=0, algorithm="unison", **params):
    return TrialSpec(algorithm, "random", n, "random", "distributed-random",
                     trial=trial, topology_seed=topology_seed, params=params)


def _snapshot(net):
    indptr, indices = net.csr()
    return net.m, indptr.copy(), indices.copy(), net.diameter


class TestCellReuse:
    def test_a_cells_trials_share_one_network(self, spy, monkeypatch):
        builds, cells = spy
        compiles = []
        real_compile = kernelc.compile_rule_set

        def compile_spy(rule_set):
            compiles.append(rule_set)
            return real_compile(rule_set)

        monkeypatch.setattr(kernelc, "compile_rule_set", compile_spy)
        campaign = Campaign("reuse", seed=1, algorithms=("unison",),
                            topologies=("random",), sizes=(12,), trials=3)
        for spec in campaign.specs():
            run_trial(spec, seed=campaign.seed_for(spec))
        assert len(builds) == 1
        assert len(cells) == 3
        assert all(cell is cells[0] for cell in cells)
        assert cells[0].network is builds[0]
        assert len(compiles) == 1  # one rule set, structure and program

    @pytest.mark.parametrize("other", [{"topology_seed": 4}, {"n": 13},
                                       {"period": 20}, {"algorithm": "fga"}])
    def test_another_topology_seed_or_size_rebuilds(self, spy, other):
        builds, cells = spy
        params = {k: v for k, v in other.items() if k == "period"}
        layout = {k: v for k, v in other.items() if k != "period"}
        run_trial(_spec(), seed=1)
        run_trial(_spec(**layout, **params), seed=1)
        run_trial(_spec(), seed=1)
        assert len(builds) == 3
        assert cells[0] is not cells[1]
        assert cells[1] is not cells[2]

    def test_churn_trial_gets_a_fresh_network_and_leaves_the_kept_one(self, spy):
        builds, cells = spy
        run_trial(_spec(trial=0), seed=11)
        kept = cells[0]
        before = _snapshot(kept.network)
        program = kept.program()
        csr_before = (program.csr.indptr.copy(), program.csr.indices.copy())
        churned = run_trial(_spec(trial=1, churn=CHURN), seed=12)
        assert churned.extra["churn_final"]["fired"] == 2
        assert cells[1] is not kept
        assert cells[1].network.m < kept.network.m  # the crashes landed
        assert cells[1].program() is not program
        run_trial(_spec(trial=2), seed=13)
        assert cells[2] is kept
        assert runner._cell is kept
        assert len(builds) == 2
        after = _snapshot(kept.network)
        assert after[0] == before[0] and after[3] == before[3]
        assert np.array_equal(after[1], before[1])
        assert np.array_equal(after[2], before[2])
        assert kept.program() is program
        assert np.array_equal(program.csr.indptr, csr_before[0])
        assert np.array_equal(program.csr.indices, csr_before[1])

    def test_clean_records_equal_fresh_network_records(self, spy):
        specs = [_spec(trial=0), _spec(trial=1, churn=CHURN), _spec(trial=2),
                 _spec(trial=3)]
        reused = [run_trial(spec, seed=20 + i) for i, spec in enumerate(specs)]
        for i, spec in enumerate(specs):
            if spec.kwargs().get("churn"):
                continue
            fresh = run_unison_trial(
                by_name("random", 12, seed=3), seed=20 + i, scenario="random",
                daemon="distributed-random",
            )
            assert reused[i] == fresh

    def test_memo_hit_spans_are_zero(self, spy):
        first, second = {}, {}
        run_trial(_spec(trial=0), seed=1, spans=first)
        run_trial(_spec(trial=1), seed=2, spans=second)
        names = {"setup.network", "setup.program", "setup.init", "run"}
        assert set(first) == set(second) == names
        assert all(v >= 0.0 for v in (*first.values(), *second.values()))
        assert first["setup.program"] > 0.0
        assert second["setup.network"] == second["setup.program"] == 0.0


def _grid():
    """Serial specs over unison, boulinier and fga; ring and random
    topologies; central and distributed-random daemons; two scenarios
    each — with a churn cell between two clean cells of one key."""
    specs = []
    for algorithm, scenarios in (("unison", ("random", "faults:1")),
                                 ("boulinier", ("random", "split")),
                                 ("fga", ("random", "faults:1"))):
        campaign = Campaign(
            "grid", seed=5, algorithms=(algorithm,),
            topologies=("ring", "random"), sizes=(10,),
            scenarios=scenarios, daemons=("central", "distributed-random"),
            trials=2, topology_seed=2,
        )
        cell = list(campaign.specs())
        churn = TrialSpec(algorithm, "ring", 10, "random", "central", trial=0,
                          topology_seed=2,
                          params=(("churn", "every=20,count=2,crash=1"),))
        specs += cell[:2] + [churn] + cell[2:]
    return specs


def test_grid_records_equal_memo_cleared_records(monkeypatch):
    specs = _grid()
    monkeypatch.setattr(runner, "_cell", None)
    kept = [execute_trial(spec, 5, "grid") for spec in specs]
    cleared = []
    for spec in specs:
        monkeypatch.setattr(runner, "_cell", None)
        cleared.append(execute_trial(spec, 5, "grid"))
    assert kept == cleared
    assert any(r["result"]["extra"].get("churn_final") for r in kept)


def test_a_campaign_starts_and_ends_without_a_kept_cell(monkeypatch):
    from repro.engine import run_campaign

    campaign = Campaign("scope", seed=1, algorithms=("unison",),
                        topologies=("ring",), sizes=(6,), trials=2)
    monkeypatch.setattr(runner, "_cell", None)
    run_trial(next(iter(campaign.specs())), seed=1)
    stale = runner._cell
    seen = []
    real_cell = runner._trial_cell

    def cell_spy(*args, **kwargs):
        seen.append(real_cell(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(runner, "_trial_cell", cell_spy)
    run_campaign(campaign, batch=False)
    assert seen and all(cell is seen[0] for cell in seen)
    assert seen[0] is not stale  # built by this campaign
    assert runner._cell is None
