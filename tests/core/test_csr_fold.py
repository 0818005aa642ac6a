"""Masked min/max folds of :class:`CSRAdjacency` against a brute force.

Irregular layouts without empty segments fold with ``ufunc.reduceat``;
layouts left with an isolated process by ``apply_delta`` keep the
``ufunc.at`` scatter.  On both, each process must get the min/max of its
neighbors' values that pass the mask, and the default where none does.
"""

import numpy as np
import pytest

from repro.core.kernel.csr import CSRAdjacency
from repro.topology import by_name


def brute_fold(csr, values, mask, pick, default):
    """Per process: ``pick`` over its masked neighbor slots, or default."""
    out = []
    for u in range(csr.n):
        slots = range(csr.indptr[u], csr.indptr[u + 1])
        cands = [int(values[i]) for i in slots if mask[i]]
        out.append(pick(cands) if cands else default)
    return out


def masks(rng, edges):
    return {
        "random": rng.random(edges) < 0.5,
        "all-false": np.zeros(edges, dtype=np.bool_),
        "all-true": np.ones(edges, dtype=np.bool_),
    }


def assert_folds_match(csr, rng):
    edges = csr.indices.shape[0]
    values = rng.integers(-50, 50, size=edges)
    for name, mask in masks(rng, edges).items():
        lo = csr.min_neigh(values, mask, -7)
        hi = csr.max_neigh(values, mask, 99)
        assert lo.tolist() == brute_fold(csr, values, mask, min, -7), name
        assert hi.tolist() == brute_fold(csr, values, mask, max, 99), name
    # Boolean values fold as int64 (0/1), like the IR's bool reductions.
    flags = rng.random(edges) < 0.5
    mask = rng.random(edges) < 0.7
    got = csr.max_neigh(flags, mask, -1)
    assert got.dtype == np.int64
    assert got.tolist() == brute_fold(csr, flags, mask, max, -1)


@pytest.mark.parametrize("family", ["random", "sparse", "tree"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduceat_fold_matches_brute_force(family, seed):
    csr = CSRAdjacency(by_name(family, 40, seed=seed))
    # Irregular with every degree >= 1: the reduceat path.
    assert csr._stride == 0 and not csr._has_empty
    assert_folds_match(csr, np.random.default_rng(seed))


@pytest.mark.parametrize("family", ["random", "sparse", "tree"])
def test_scatter_fold_after_delta_leaves_an_empty_segment(family):
    net = by_name(family, 30, seed=5)
    csr = CSRAdjacency(net)
    victim = int(np.argmax(csr.deg))
    incident = [tuple(sorted((victim, v))) for v in net.neighbors(victim)]
    csr.apply_delta(incident, [])
    assert csr._has_empty and csr.deg[victim] == 0
    rng = np.random.default_rng(9)
    assert_folds_match(csr, rng)
    edges = csr.indices.shape[0]
    lo = csr.min_neigh(rng.integers(0, 9, size=edges),
                       np.ones(edges, dtype=np.bool_), -3)
    assert lo[victim] == -3
