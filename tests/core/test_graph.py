"""Unit tests for :mod:`repro.core.graph`."""

import random

import networkx as nx
import pytest

from repro.core import Network, TopologyError
from repro.core import graph as graph_module
from repro.topology import TOPOLOGIES, by_name


class TestConstruction:
    def test_from_edge_list(self):
        net = Network([(0, 1), (1, 2)])
        assert net.n == 3
        assert net.m == 2

    def test_from_networkx_graph(self):
        net = Network(nx.cycle_graph(5))
        assert net.n == 5
        assert net.m == 5

    def test_arbitrary_node_names_are_reindexed(self):
        net = Network([("a", "b"), ("b", "c")])
        assert net.n == 3
        assert net.names == ("a", "b", "c")
        assert net.index_of("b") == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            Network(nx.Graph())

    def test_disconnected_graph_rejected(self):
        with pytest.raises(TopologyError, match="connected"):
            Network([(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        with pytest.raises(TopologyError, match="[Ss]elf-loop"):
            Network(graph)

    def test_single_process_network(self):
        net = Network.single()
        assert net.n == 1
        assert net.m == 0
        assert net.neighbors(0) == ()
        assert net.diameter == 0


class TestAdjacency:
    def test_neighbors_sorted(self):
        net = Network([(2, 0), (2, 1), (2, 3)])
        assert net.neighbors(2) == (0, 1, 3)

    def test_closed_neighbors_self_first(self):
        net = Network([(0, 1), (1, 2)])
        assert net.closed_neighbors(1) == (1, 0, 2)

    def test_are_neighbors(self):
        net = Network([(0, 1), (1, 2)])
        assert net.are_neighbors(0, 1)
        assert not net.are_neighbors(0, 2)

    def test_degree_and_max_degree(self):
        net = Network([(0, 1), (0, 2), (0, 3)])
        assert net.degree(0) == 3
        assert net.degree(1) == 1
        assert net.max_degree == 3
        assert net.degrees == (3, 1, 1, 1)

    def test_edges_listed_once(self):
        net = Network(nx.cycle_graph(4))
        edges = list(net.edges())
        assert len(edges) == 4
        assert all(u < v for u, v in edges)

    def test_diameter(self):
        assert Network(nx.path_graph(5)).diameter == 4
        assert Network(nx.complete_graph(5)).diameter == 1

    def test_len_and_processes(self):
        net = Network(nx.path_graph(4))
        assert len(net) == 4
        assert list(net.processes()) == [0, 1, 2, 3]


class TestIdentifiers:
    def test_default_ids_are_indices(self):
        net = Network([(0, 1), (1, 2)])
        assert net.ids == (0, 1, 2)
        assert net.id_of(1) == 1

    def test_explicit_ids(self):
        net = Network([(0, 1), (1, 2)], ids={0: 30, 1: 10, 2: 20})
        assert net.ids == (30, 10, 20)
        assert net.id_of(0) == 30

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TopologyError, match="unique"):
            Network([(0, 1)], ids={0: 7, 1: 7})

    def test_missing_id_rejected(self):
        with pytest.raises(TopologyError):
            Network([(0, 1)], ids={0: 1})

    def test_with_ids_copy(self):
        net = Network([(0, 1), (1, 2)])
        renamed = net.with_ids([5, 9, 3])
        assert renamed.ids == (5, 9, 3)
        assert net.ids == (0, 1, 2)  # original untouched


class TestInterop:
    def test_to_networkx_is_copy(self):
        net = Network([(0, 1), (1, 2)])
        graph = net.to_networkx()
        graph.add_edge(0, 2)
        assert net.m == 2  # unchanged

    def test_repr_mentions_sizes(self):
        rep = repr(Network([(0, 1)]))
        assert "n=2" in rep and "m=1" in rep


class TestChurnDelta:
    """``apply_delta`` — the only sanctioned mutation surface."""

    def test_drop_and_add_update_all_views(self):
        net = Network([(0, 1), (1, 2), (0, 2)])
        net.apply_delta(drops=[(0, 2)])
        assert net.m == 2
        assert net.neighbors(0) == (1,)
        assert not net.are_neighbors(0, 2)
        net.apply_delta(adds=[(0, 2)])
        assert net.m == 3
        assert net.are_neighbors(0, 2)

    def test_validation(self):
        net = Network([(0, 1), (1, 2)])
        with pytest.raises(TopologyError, match="absent"):
            net.apply_delta(drops=[(0, 2)])
        with pytest.raises(TopologyError, match="present"):
            net.apply_delta(adds=[(0, 1)])
        with pytest.raises(TopologyError, match="[Ss]elf-loop"):
            net.apply_delta(adds=[(1, 1)])

    def test_disconnection_is_permitted(self):
        """Connectivity policy lives in the churn scheduler, not here."""
        net = Network([(0, 1), (1, 2)])
        net.apply_delta(drops=[(1, 2)])
        assert net.neighbors(2) == ()

    def test_csr_cache_invalidated(self):
        """Regression: ``csr()`` once cached a pre-churn layout forever."""
        net = Network([(0, 1), (1, 2)])
        indptr_before, indices_before = net.csr()
        net.apply_delta(adds=[(0, 2)])
        indptr_after, indices_after = net.csr()
        assert list(indices_after) != list(indices_before)
        assert indptr_after[-1] == 2 * net.m
        # and the refreshed layout matches a from-scratch network
        fresh_indptr, fresh_indices = Network([(0, 1), (1, 2), (0, 2)]).csr()
        assert list(indptr_after) == list(fresh_indptr)
        assert list(indices_after) == list(fresh_indices)

    def test_diameter_cache_invalidated(self):
        net = Network([(0, 1), (1, 2), (2, 3)])
        assert net.diameter == 3
        net.apply_delta(adds=[(0, 3)])
        assert net.diameter == 2


class TestReadOnlyCSR:
    def test_csr_arrays_reject_writes(self):
        indptr, indices = Network(nx.cycle_graph(4)).csr()
        with pytest.raises(ValueError):
            indptr[0] = 1
        with pytest.raises(ValueError):
            indices[0] = 3

    def test_rebuilt_csr_is_read_only_too(self):
        net = Network(nx.path_graph(4))
        net.csr()
        net.apply_delta(adds=[(0, 3)])
        indptr, indices = net.csr()
        assert not indptr.flags.writeable
        assert not indices.flags.writeable


def _oracle(net: Network) -> int:
    return nx.diameter(net.to_networkx()) if net.n > 1 else 0


class TestBitsetDiameter:
    """``Network.diameter`` against ``nx.diameter`` as the oracle."""

    SIZES = (1, 2, 3, 63, 64, 65, 127, 128, 129)

    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    def test_every_family_across_word_boundaries(self, family):
        built = 0
        for n in self.SIZES:
            try:
                net = by_name(family, n, seed=0)
            except TopologyError:  # e.g. no ring on two processes
                continue
            assert net.diameter == _oracle(net), n
            built += 1
        assert built >= len(self.SIZES) - 2

    @pytest.mark.parametrize("family", ["random", "sparse", "tree"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [9, 64, 65, 129])
    def test_seeded_families(self, family, seed, n):
        net = by_name(family, n, seed=seed)
        assert net.diameter == _oracle(net)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_several_source_blocks(self, monkeypatch, n):
        monkeypatch.setattr(graph_module, "_BFS_BLOCK", 64)
        for family in ("ring", "tree", "sparse"):
            net = by_name(family, n, seed=1)
            assert net.diameter == _oracle(net)

    @pytest.mark.parametrize("seed", range(5))
    def test_after_churn_adds_and_drops(self, seed):
        rng = random.Random(seed)
        net = by_name("sparse", 65, seed=seed)
        for _ in range(6):
            edges = list(net.edges())
            rng.shuffle(edges)
            drops = []
            for u, v in edges:
                probe = net.to_networkx()
                probe.remove_edges_from(drops + [(u, v)])
                if nx.is_connected(probe):
                    drops.append((u, v))
                if len(drops) == 3:
                    break
            absent = [
                (u, v) for u in range(net.n) for v in range(u + 1, net.n)
                if not net.are_neighbors(u, v)
            ]
            adds = rng.sample(absent, 2)
            net.apply_delta(drops=drops, adds=adds)
            assert net.diameter == _oracle(net)

    def test_isolated_process_after_churn_raises(self):
        net = Network(nx.path_graph(4))
        assert net.diameter == 3
        net.apply_delta(drops=[(2, 3)])
        with pytest.raises(nx.NetworkXError):
            net.diameter

    def test_split_into_components_after_churn_raises(self):
        net = Network(nx.path_graph(70))
        net.apply_delta(drops=[(34, 35)])
        assert min(net.degrees) > 0
        with pytest.raises(nx.NetworkXError):
            net.diameter
