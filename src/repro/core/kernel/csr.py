"""CSR adjacency with vectorized neighborhood reductions.

Guards in the locally shared memory model are neighborhood quantifiers:
``∀v ∈ N(u)``, ``∃v ∈ N(u)``, ``#{v ∈ N(u) | …}``, ``min …``.  With the
adjacency flattened to CSR (``indptr``/``indices`` from
:meth:`repro.core.graph.Network.csr`), each such quantifier over *every*
process at once becomes one gather over the edge array plus one segmented
reduction — no python-level loop over processes or neighbors.

The reductions use ``ufunc.reduceat`` over the edge array.  ``reduceat``
mis-handles empty segments, so that fast path is reserved for layouts
where every process has degree ≥ 1 (any connected network with
``n ≥ 2``).  Layouts with isolated processes — the zero-edge network,
or any graph after crash/drop-edge churn (:meth:`apply_delta`) — take a
``ufunc.at`` scatter path instead, which hands every quantifier its
vacuous value on empty neighborhoods (count 0, ∀ true, ∃ false, fold
default).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRAdjacency"]


class CSRAdjacency:
    """Flattened neighborhoods of a :class:`~repro.core.graph.Network`.

    Attributes
    ----------
    indptr, indices:
        CSR layout; ``indices[indptr[u]:indptr[u+1]]`` = ``N(u)`` ascending.
    edge_src:
        For each edge slot, the process whose neighborhood it belongs to
        (``indices[i]`` is a neighbor of ``edge_src[i]``).
    deg:
        Per-process degree vector.
    """

    __slots__ = (
        "n", "indptr", "indices", "edge_src", "deg", "_starts", "_no_edges",
        "_has_empty", "_stride",
    )

    def __init__(self, network):
        indptr, indices = network.csr()
        self._init_from(indptr, indices, network.n)

    def _init_from(self, indptr, indices, n: int) -> None:
        self.n: int = n
        self.indptr = indptr
        self.indices = indices
        self.deg = np.diff(indptr)
        self.edge_src = np.repeat(np.arange(self.n, dtype=np.int64), self.deg)
        self._starts = indptr[:-1]
        self._no_edges = indices.shape[0] == 0  # zero edges at all
        #: Any degree-0 process present → ``reduceat`` is off the table
        #: (it mis-handles empty segments); reductions scatter with
        #: ``ufunc.at`` instead.
        self._has_empty = bool(self._no_edges or not self.deg.all())
        #: Constant degree of a regular graph (0 = irregular).  For small
        #: constant degrees the segmented reductions specialize to strided
        #: element-wise chains (``flags[0::d] op flags[1::d] op …``), which
        #: beat ``reduceat``'s generic segment loop several-fold — rings
        #: and tori, the benchmark workhorses, live on this path.
        self._stride = 0
        if not self._no_edges:
            d = int(self.deg[0])
            if 2 <= d <= 4 and bool((self.deg == d).all()):
                self._stride = d

    @classmethod
    def from_arrays(cls, indptr, indices, n: int) -> "CSRAdjacency":
        """Build directly from CSR arrays (tiled batch layouts)."""
        csr = cls.__new__(cls)
        csr._init_from(indptr, indices, n)
        return csr

    def tile(self, copies: int) -> "CSRAdjacency":
        """Block-diagonal replication: ``copies`` disjoint copies.

        Trial ``t`` of a batch owns processes ``[t·n, (t+1)·n)``; its
        adjacency is this graph's shifted by ``t·n``.  Per-block
        connectivity is preserved, so every degree (and the ``reduceat``
        non-empty-segment requirement) carries over.
        """
        if copies == 1:
            return self
        n = self.n
        offsets = np.arange(copies, dtype=np.int64)
        indices = (self.indices[None, :] + (offsets * n)[:, None]).ravel()
        block = np.diff(self.indptr)
        indptr = np.zeros(copies * n + 1, dtype=np.int64)
        np.cumsum(np.tile(block, copies), out=indptr[1:])
        return CSRAdjacency.from_arrays(indptr, indices, copies * n)

    def apply_delta(self, drops, adds) -> None:
        """Patch the adjacency in place: remove ``drops``, insert ``adds``.

        Both are iterables of undirected ``(u, v)`` index pairs; callers
        (the churn scheduler) guarantee drops exist and adds don't.  The
        edit stays in array space — edges are encoded as directed keys
        ``u·n + v``, filtered/merged, and the CSR layout re-derived —
        so the result is exactly a from-scratch rebuild of the mutated
        edge set, including ``_stride`` and the empty-segment guards.
        """
        n = self.n
        keys = self.edge_src * n + self.indices
        if drops:
            dead = np.fromiter(
                (p * n + q for u, v in drops for p, q in ((u, v), (v, u))),
                dtype=np.int64,
            )
            keys = keys[np.isin(keys, dead, invert=True)]
        if adds:
            born = np.fromiter(
                (p * n + q for u, v in adds for p, q in ((u, v), (v, u))),
                dtype=np.int64,
            )
            keys = np.concatenate((keys, born))
            keys.sort()
        src, dst = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._init_from(indptr, dst, n)

    # ------------------------------------------------------------------
    # Gathers
    # ------------------------------------------------------------------
    def pull(self, column: np.ndarray) -> np.ndarray:
        """Per edge slot: the *neighbor's* value of ``column``."""
        return column[self.indices]

    def own(self, column: np.ndarray) -> np.ndarray:
        """Per edge slot: the *owner's* value of ``column``."""
        return column[self.edge_src]

    # ------------------------------------------------------------------
    # Segmented reductions (edge space → process space)
    # ------------------------------------------------------------------
    def count_neigh(self, edge_flags: np.ndarray) -> np.ndarray:
        """``#{v ∈ N(u) | flag}`` for every ``u`` (int64 vector)."""
        if self._no_edges:
            return np.zeros(self.n, dtype=np.int64)
        d = self._stride
        if d:
            out = edge_flags[0::d].astype(np.int64)
            for lane in range(1, d):
                out += edge_flags[lane::d]
            return out
        if self._has_empty:
            out = np.zeros(self.n, dtype=np.int64)
            np.add.at(out, self.edge_src, edge_flags.astype(np.int64, copy=False))
            return out
        return np.add.reduceat(edge_flags.astype(np.int64, copy=False), self._starts)

    def all_neigh(self, edge_flags: np.ndarray) -> np.ndarray:
        """``∀v ∈ N(u): flag`` (vacuously true for isolated processes)."""
        if self._no_edges:
            return np.ones(self.n, dtype=np.bool_)
        d = self._stride
        if d:
            out = edge_flags[0::d] & edge_flags[1::d]
            for lane in range(2, d):
                out &= edge_flags[lane::d]
            return out
        if self._has_empty:
            out = np.ones(self.n, dtype=np.bool_)
            np.logical_and.at(out, self.edge_src, edge_flags)
            return out
        return np.logical_and.reduceat(edge_flags, self._starts)

    def any_neigh(self, edge_flags: np.ndarray) -> np.ndarray:
        """``∃v ∈ N(u): flag``."""
        if self._no_edges:
            return np.zeros(self.n, dtype=np.bool_)
        d = self._stride
        if d:
            out = edge_flags[0::d] | edge_flags[1::d]
            for lane in range(2, d):
                out |= edge_flags[lane::d]
            return out
        if self._has_empty:
            out = np.zeros(self.n, dtype=np.bool_)
            np.logical_or.at(out, self.edge_src, edge_flags)
            return out
        return np.logical_or.reduceat(edge_flags, self._starts)

    def min_neigh(
        self, edge_values: np.ndarray, edge_mask: np.ndarray, default
    ) -> np.ndarray:
        """``min{value(v) | v ∈ N(u), mask}`` with ``default`` when empty.

        ``default`` applies exactly where no neighbor passes the mask —
        it never competes with real candidates, so it may lie *below*
        them (matching ``min(candidates, default=...)``).
        """
        return self._fold_neigh(np.minimum, edge_values, edge_mask, default)

    def max_neigh(
        self, edge_values: np.ndarray, edge_mask: np.ndarray, default
    ) -> np.ndarray:
        """``max{value(v) | v ∈ N(u), mask}`` with ``default`` when empty.

        Like :meth:`min_neigh`, ``default`` never competes with real
        candidates and may lie above them.
        """
        return self._fold_neigh(np.maximum, edge_values, edge_mask, default)

    def _fold_neigh(self, fold, edge_values, edge_mask, default):
        # Fold with the dtype's identity element, then substitute the
        # caller's default where the mask admitted no neighbor at all.
        values = np.asarray(edge_values)
        dtype = values.dtype if values.dtype != np.bool_ else np.dtype(np.int64)
        bound = np.iinfo(dtype)
        identity = bound.max if fold is np.minimum else bound.min
        masked = np.where(edge_mask, values, identity)
        d = self._stride
        if d:
            out = fold(masked[0::d], masked[1::d])
            for lane in range(2, d):
                fold(out, masked[lane::d], out=out)
        elif self._has_empty:
            out = np.full(self.n, identity, dtype=masked.dtype)
            fold.at(out, self.edge_src, masked)
        else:
            out = fold.reduceat(masked, self._starts)
        return np.where(self.any_neigh(edge_mask), out, default)
