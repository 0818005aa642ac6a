"""Public API surface tests: everything advertised is importable and wired."""

import importlib
from pathlib import Path

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["version"] == repro.__version__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.topology",
            "repro.reset",
            "repro.unison",
            "repro.alliance",
            "repro.baselines",
            "repro.faults",
            "repro.analysis",
            "repro.harness",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_py_typed_marker_ships(self):
        import pathlib

        pkg_dir = pathlib.Path(repro.__file__).parent
        assert (pkg_dir / "py.typed").exists()


class TestEndToEndViaPublicApi:
    def test_readme_snippet(self):
        """The README quickstart snippet must keep working verbatim."""
        from random import Random

        from repro import SDR, Simulator, Unison, DistributedRandomDaemon, topology
        from repro.core import measure_stabilization

        net = topology.ring(10)
        algo = SDR(Unison(net))
        start = algo.random_configuration(Random(0))
        sim = Simulator(algo, DistributedRandomDaemon(0.5), config=start, seed=0)
        detector, _ = measure_stabilization(sim, algo.is_normal)
        assert detector.rounds <= 3 * net.n

    def test_every_documented_algorithm_instantiates(self):
        from repro import FGA, BoulinierUnison, TurauMIS, Unison, topology
        from repro.baselines import BfsTree, LeaderElection, MonoReset
        from repro.reset import SDR

        net = topology.ring(5)
        algos = [
            SDR(Unison(net)),
            SDR(FGA(net, 1, 0)),
            BoulinierUnison(net),
            TurauMIS(net),
            BfsTree(net),
            LeaderElection(net),
            MonoReset(Unison(net)),
        ]
        for algo in algos:
            cfg = algo.initial_configuration()
            assert len(cfg) == net.n
            for u in net.processes():
                algo.validate_state(cfg[u], u)
