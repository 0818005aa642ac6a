"""``run_trial`` builds each campaign cell's network once and reuses it."""

import numpy as np
import pytest

from repro.engine.campaign import Campaign, TrialSpec
from repro.harness import runner
from repro.harness.runner import run_trial, run_unison_trial
from repro.topology import by_name

CHURN = "every=10,count=2,crash=1"


@pytest.fixture
def spy(monkeypatch):
    """Start with no kept network; record every build and trial network."""
    monkeypatch.setattr(runner, "_cell_network", None)
    builds, networks = [], []
    real_by_name, real_unison = runner.by_name, runner.run_unison_trial

    def by_name_spy(*args, **kwargs):
        net = real_by_name(*args, **kwargs)
        builds.append(net)
        return net

    def unison_spy(network, **kwargs):
        networks.append(network)
        return real_unison(network, **kwargs)

    monkeypatch.setattr(runner, "by_name", by_name_spy)
    monkeypatch.setattr(runner, "run_unison_trial", unison_spy)
    return builds, networks


def _spec(n=12, topology_seed=3, trial=0, **params):
    return TrialSpec("unison", "random", n, "random", "distributed-random",
                     trial=trial, topology_seed=topology_seed, params=params)


def _snapshot(net):
    indptr, indices = net.csr()
    return net.m, indptr.copy(), indices.copy(), net.diameter


class TestCellReuse:
    def test_a_cells_trials_share_one_network(self, spy):
        builds, networks = spy
        campaign = Campaign("reuse", seed=1, algorithms=("unison",),
                            topologies=("random",), sizes=(12,), trials=3)
        for spec in campaign.specs():
            run_trial(spec, seed=campaign.seed_for(spec))
        assert len(builds) == 1
        assert all(net is builds[0] for net in networks)
        assert len(networks) == 3

    @pytest.mark.parametrize("other", [{"topology_seed": 4}, {"n": 13}])
    def test_another_topology_seed_or_size_rebuilds(self, spy, other):
        builds, networks = spy
        run_trial(_spec(), seed=1)
        run_trial(_spec(**other), seed=1)
        run_trial(_spec(), seed=1)
        assert len(builds) == 3
        assert networks[0] is not networks[1]
        assert networks[1] is not networks[2]

    def test_churn_trial_gets_a_fresh_network_and_leaves_the_kept_one(self, spy):
        builds, networks = spy
        run_trial(_spec(trial=0), seed=11)
        kept = networks[0]
        before = _snapshot(kept)
        churned = run_trial(_spec(trial=1, churn=CHURN), seed=12)
        assert churned.extra["churn_final"]["fired"] == 2
        assert networks[1] is not kept
        assert networks[1].m < kept.m  # the churn trial's crashes landed
        run_trial(_spec(trial=2), seed=13)
        assert networks[2] is kept
        assert len(builds) == 2
        after = _snapshot(kept)
        assert after[0] == before[0] and after[3] == before[3]
        assert np.array_equal(after[1], before[1])
        assert np.array_equal(after[2], before[2])

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
