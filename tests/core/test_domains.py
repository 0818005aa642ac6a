"""Declared arbitrary-state domains and the columnar initial draw.

``Algorithm.domains()`` is the one declaration both draws derive from:
``random_state`` (one dict per process) and ``Schema.draw`` (columns for
the kernel).  They must consume the ``Random`` identically.
"""

from random import Random

import numpy as np
import pytest

from repro.alliance.fga import FGA
from repro.alliance.turau import TurauMIS
from repro.baselines.bfs_tree import BfsTree
from repro.baselines.leader_election import LeaderElection
from repro.baselines.mono_reset import MonoReset
from repro.core import Configuration, Simulator, make_daemon
from repro.core.composition import Composition
from repro.reset.sdr import SDR
from repro.topology import ring
from repro.unison.boulinier import BoulinierUnison
from repro.unison.unison import Unison

DECLARED = {
    "sdr(unison)": lambda net: SDR(Unison(net)),
    "unison": Unison,
    "boulinier": BoulinierUnison,
    "turau-mis": TurauMIS,
    "leader-election": LeaderElection,
    "composition(leader-election, turau-mis)":
        lambda net: Composition([LeaderElection(net), TurauMIS(net)]),
}

UNDECLARED = {
    "fga": lambda net: FGA(net, 1, 1),
    "sdr(fga)": lambda net: SDR(FGA(net, 1, 1)),
    "bfs-tree": lambda net: BfsTree(net, root=0),
    "mono-reset(unison)": lambda net: MonoReset(Unison(net)),
}


@pytest.mark.parametrize("name", sorted(DECLARED))
@pytest.mark.parametrize("n", [3, 16, 129])
def test_columnar_draw_equals_encoded_random_configuration(name, n):
    algo = DECLARED[name](ring(n))
    program = algo.kernel_program()
    domains = algo.domains()
    assert domains is not None
    for seed in (0, 1, 7, 12345):
        reference, drawn = Random(seed), Random(seed)
        want = program.schema.encode(algo.random_configuration(reference))
        got = program.schema.draw(domains, n, drawn)
        assert list(got) == list(want)
        for var in want:
            assert got[var].dtype == want[var].dtype
            assert np.array_equal(got[var], want[var]), (name, var)
        assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_random_configuration_is_per_process_random_state(name):
    algo = DECLARED[name](ring(16))
    by_state, by_config = Random(3), Random(3)
    want = Configuration.build(16, lambda u: algo.random_state(u, by_state))
    assert algo.random_configuration(by_config) == want
    assert by_config.getstate() == by_state.getstate()


@pytest.mark.parametrize("name", sorted(UNDECLARED))
def test_conditional_draws_declare_no_domains(name):
    algo = UNDECLARED[name](ring(5))
    assert algo.domains() is None
    algo.random_state(0, Random(1))  # still draws its own way


def test_simulator_from_columns_decodes_lazily_and_runs_alike():
    net = ring(12)
    sdr = SDR(Unison(net))
    program = sdr.kernel_program()
    cfg = sdr.random_configuration(Random(4))
    columns = program.schema.draw(sdr.domains(), net.n, Random(4))
    by_cfg = Simulator(sdr, make_daemon("central", net), config=cfg, seed=9)
    by_cols = Simulator(sdr, make_daemon("central", net), columns=columns,
                        seed=9, program=program)
    assert by_cols._cfg is None  # nothing decoded yet
    assert by_cols.cfg == cfg
    a, b = by_cfg.run(max_steps=500), by_cols.run(max_steps=500)
    assert (a.steps, a.moves, a.rounds) == (b.steps, b.moves, b.rounds)
    assert by_cols.cfg == by_cfg.cfg


def test_columns_exclude_config_and_the_dict_backend():
    net = ring(4)
    sdr = SDR(Unison(net))
    program = sdr.kernel_program()
    columns = program.schema.draw(sdr.domains(), net.n, Random(0))
    daemon = make_daemon("central", net)
    with pytest.raises(ValueError):
        Simulator(sdr, daemon, config=sdr.initial_configuration(),
                  columns=columns, seed=0)
    with pytest.raises(ValueError):
        Simulator(sdr, daemon, columns=columns, seed=0, backend="dict")
