"""Communication network abstraction.

The paper models the system as a simple undirected connected graph
``G = (V, E)`` where ``V`` is the set of processes and ``E`` the set of
communication links (Section 2.1).  :class:`Network` freezes such a graph
into an index-based adjacency structure optimised for the hot path of the
simulator: guard evaluation repeatedly iterates over closed neighborhoods.

The structure is immutable under normal operation; the one sanctioned
mutation surface is :meth:`Network.apply_delta`, used by topology churn
(:mod:`repro.faults.churn`) to drop/add links mid-run.  The process set
(and hence every index and identifier) never changes — a crashed process
merely loses all of its links — and every derived view (adjacency
tuples, degree vector, cached CSR, cached diameter) is rebuilt or
invalidated atomically so no reader can observe a stale topology.
The cached CSR arrays are read-only: campaign cells share one network
across their trials, so an in-place write must fail rather than leak.

The diameter ``D`` (which every trial record carries, and which the
move bounds are stated in) is computed exactly by an all-sources BFS
over the CSR with bitset frontiers: each process holds one bit per
source, and one segmented OR over its neighbors' rows advances every
source's BFS by a level at once.  A graph left disconnected by churn
has no finite diameter and raises :class:`networkx.NetworkXError`.

Processes are identified *internally* by integers ``0 .. n-1``.  This does
not contradict the anonymity assumption of the paper: anonymous algorithms
simply never read those indices (they correspond to the paper's "indirect
naming" / local labels ``N(u)``), whereas identified algorithms such as FGA
receive an explicit ``ids`` assignment.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import networkx as nx

from .exceptions import TopologyError

__all__ = ["Network"]

#: BFS sources per bitset block (64 ``uint64`` words per process row),
#: which bounds the reach matrix at ``n × 512`` bytes.
_BFS_BLOCK = 4096

_DISCONNECTED = "Found infinite path length because the graph is not connected"


def _bitset_diameter(indptr, indices) -> int:
    """Exact diameter of a graph given in CSR form, by bitset BFS.

    Sources are processed in blocks of :data:`_BFS_BLOCK`.  Row ``u`` of
    the reach matrix ``R`` is a bitset over the block's sources: bit
    ``s`` is set once ``u`` lies within the current level's distance of
    source ``s``.  One level ORs every process's neighbor rows into its
    own (a ``reduceat`` over ``R[indices]``); a block is done when every
    row is full, and its level count is the largest eccentricity among
    its sources.  Raises :class:`networkx.NetworkXError` on a
    disconnected graph (a degree-0 process, or a level without
    progress).
    """
    import numpy as np

    n = indptr.shape[0] - 1
    if n == 1:
        return 0
    starts = indptr[:-1]
    if not np.diff(indptr).all():
        raise nx.NetworkXError(_DISCONNECTED)
    diameter = 0
    for lo in range(0, n, _BFS_BLOCK):
        bits = np.arange(min(_BFS_BLOCK, n - lo))
        reach = np.zeros((n, (bits.shape[0] + 63) >> 6), dtype=np.uint64)
        reach[lo + bits, bits >> 6] = np.uint64(1) << (bits & 63).astype(np.uint64)
        full = np.bitwise_or.reduce(reach, axis=0)
        level = 0
        while not (reach == full).all():
            grown = np.bitwise_or.reduceat(reach[indices], starts, axis=0)
            grown |= reach
            if np.array_equal(grown, reach):
                raise nx.NetworkXError(_DISCONNECTED)
            reach = grown
            level += 1
        diameter = max(diameter, level)
    return diameter


class Network:
    """An immutable, validated communication graph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs over hashable node names, or a
        :class:`networkx.Graph`.  Node names are mapped to dense indices
        ``0..n-1`` in sorted order when sortable (insertion order otherwise).
    ids:
        Optional mapping from node name to a unique integer identifier, used
        by identified-network algorithms (e.g. FGA).  Defaults to the dense
        index itself.  Anonymous algorithms must not read identifiers.

    Examples
    --------
    >>> net = Network([(0, 1), (1, 2)])
    >>> net.n, net.m
    (3, 2)
    >>> net.neighbors(1)
    (0, 2)
    >>> net.closed_neighbors(1)
    (1, 0, 2)
    """

    __slots__ = (
        "_graph",
        "_names",
        "_index_of",
        "_adj",
        "_closed_adj",
        "_adj_sets",
        "_ids",
        "_degrees",
        "_diameter",
        "_csr",
    )

    def __init__(
        self,
        edges: Iterable[tuple[object, object]] | nx.Graph,
        ids: Mapping[object, int] | None = None,
    ):
        if isinstance(edges, nx.Graph):
            graph = nx.Graph(edges)
        else:
            graph = nx.Graph()
            graph.add_edges_from(edges)
        if graph.number_of_nodes() == 0:
            raise TopologyError("the network must contain at least one process")
        if any(u == v for u, v in graph.edges()):
            raise TopologyError("self-loops are not allowed (simple graph required)")
        if not nx.is_connected(graph):
            raise TopologyError("the network must be connected")

        try:
            names: list = sorted(graph.nodes())
        except TypeError:
            names = list(graph.nodes())
        self._names: tuple = tuple(names)
        self._index_of = {name: i for i, name in enumerate(self._names)}
        self._graph = graph

        adjacency: list[tuple[int, ...]] = []
        for name in self._names:
            neigh = sorted(self._index_of[w] for w in graph.neighbors(name))
            adjacency.append(tuple(neigh))
        self._adj: tuple[tuple[int, ...], ...] = tuple(adjacency)
        self._closed_adj: tuple[tuple[int, ...], ...] = tuple(
            (u, *neigh) for u, neigh in enumerate(self._adj)
        )
        self._adj_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(a) for a in self._adj
        )
        self._degrees: tuple[int, ...] = tuple(len(a) for a in self._adj)
        self._csr = None

        if ids is None:
            self._ids: tuple[int, ...] = tuple(range(len(self._names)))
        else:
            try:
                assigned = tuple(int(ids[name]) for name in self._names)
            except KeyError as missing:
                raise TopologyError(f"ids mapping misses node {missing}") from None
            if len(set(assigned)) != len(assigned):
                raise TopologyError("process identifiers must be unique")
            self._ids = assigned

        self._diameter: int | None = None

    # ------------------------------------------------------------------
    # Sizes and identifiers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processes (the paper's ``n``)."""
        return len(self._names)

    @property
    def m(self) -> int:
        """Number of edges (the paper's ``m``)."""
        return self._graph.number_of_edges()

    @property
    def names(self) -> tuple:
        """Original node names, in index order."""
        return self._names

    @property
    def ids(self) -> tuple[int, ...]:
        """Unique process identifiers, in index order (identified networks)."""
        return self._ids

    def id_of(self, u: int) -> int:
        """Identifier of process ``u`` (used only by identified algorithms)."""
        return self._ids[u]

    def index_of(self, name: object) -> int:
        """Dense index of the process originally named ``name``."""
        return self._index_of[name]

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> tuple[int, ...]:
        """Open neighborhood ``N(u)``."""
        return self._adj[u]

    def closed_neighbors(self, u: int) -> tuple[int, ...]:
        """Closed neighborhood ``N[u]`` (``u`` first, then its neighbors)."""
        return self._closed_adj[u]

    def degree(self, u: int) -> int:
        """Degree ``δ_u`` of process ``u``."""
        return self._degrees[u]

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Δ`` of the network."""
        return max(self._degrees)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def are_neighbors(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    # ------------------------------------------------------------------
    # Topology churn (the only sanctioned mutation surface)
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        drops: Iterable[tuple[int, int]] = (),
        adds: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Mutate the link set in place: remove ``drops``, insert ``adds``.

        Both arguments are iterables of undirected index pairs.  The
        process set is fixed — churn silences processes by removing
        their links, it never deletes them — so the result may be
        disconnected; connectivity policy is the churn scheduler's job,
        not this method's.  Dropping an absent link or adding a present
        or degenerate one is a :class:`TopologyError`.  All derived
        views (adjacency, degrees, CSR cache, diameter cache) are
        rebuilt before returning.
        """
        drops = tuple(drops)
        adds = tuple(adds)
        for u, v in drops:
            if v not in self._adj_sets[u]:
                raise TopologyError(f"cannot drop absent link ({u}, {v})")
        for u, v in adds:
            if u == v:
                raise TopologyError(f"self-loop ({u}, {u}) is not allowed")
            if v in self._adj_sets[u]:
                raise TopologyError(f"cannot add present link ({u}, {v})")
        names = self._names
        for u, v in drops:
            self._graph.remove_edge(names[u], names[v])
        for u, v in adds:
            self._graph.add_edge(names[u], names[v])
        self._rebuild_adjacency()

    def _rebuild_adjacency(self) -> None:
        """Re-derive every adjacency view from ``_graph`` and drop caches."""
        adjacency = []
        for name in self._names:
            neigh = sorted(self._index_of[w] for w in self._graph.neighbors(name))
            adjacency.append(tuple(neigh))
        self._adj = tuple(adjacency)
        self._closed_adj = tuple((u, *neigh) for u, neigh in enumerate(self._adj))
        self._adj_sets = tuple(frozenset(a) for a in self._adj)
        self._degrees = tuple(len(a) for a in self._adj)
        self._csr = None
        self._diameter = None

    def csr(self) -> tuple:
        """Adjacency in CSR form: ``(indptr, indices)`` numpy int64 arrays.

        ``indices[indptr[u]:indptr[u+1]]`` are the neighbors of ``u`` in
        ascending order.  Built once and cached; this is the layout the
        array-backed execution kernel (:mod:`repro.core.kernel`) drives.
        Both arrays are read-only (they are shared by every reader of the
        cache).  Requires numpy.
        """
        if self._csr is None:
            import numpy as np

            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            indices = np.fromiter(
                (v for neigh in self._adj for v in neigh),
                dtype=np.int64,
                count=2 * self.m,
            )
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

    @property
    def diameter(self) -> int:
        """Network diameter ``D`` (cached; ``0`` for a single process).

        Computed exactly by an all-sources bitset BFS over :meth:`csr`.
        A network left disconnected by :meth:`apply_delta` has no finite
        diameter: reading it raises :class:`networkx.NetworkXError`.
        """
        if self._diameter is None:
            self._diameter = _bitset_diameter(*self.csr())
        return self._diameter

    # ------------------------------------------------------------------
    # Interop and dunder helpers
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """A *copy* of the underlying graph relabeled to dense indices."""
        relabel = {name: i for i, name in enumerate(self._names)}
        return nx.relabel_nodes(self._graph, relabel, copy=True)

    def processes(self) -> range:
        """Iterable over process indices ``0..n-1``."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as index pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Network(n={self.n}, m={self.m}, Δ={self.max_degree})"

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, graph: nx.Graph, ids: Mapping[object, int] | None = None) -> "Network":
        """Build a :class:`Network` from a :class:`networkx.Graph`."""
        return cls(graph, ids=ids)

    @classmethod
    def single(cls) -> "Network":
        """The one-process network (no edges)."""
        graph = nx.Graph()
        graph.add_node(0)
        return cls(graph)

    def with_ids(self, ids: Sequence[int]) -> "Network":
        """A copy of this network with explicit identifiers (index order)."""
        mapping = {name: int(ids[i]) for i, name in enumerate(self._names)}
        return Network(self._graph, ids=mapping)
