"""Computational DAG data structure.

The DAG is the central input object of the scheduling problem (paper Section
3.1): nodes are operations, directed edges are data dependencies, and every
node ``v`` carries a *work weight* ``w(v)`` (time to execute ``v``) and a
*communication weight* ``c(v)`` (cost of sending the output of ``v`` to
another processor).

The class is intentionally lightweight and index-based: nodes are the
integers ``0 .. n-1`` and the weights are numpy integer arrays.  The
canonical adjacency representation is a cached CSR (compressed sparse row)
pair of numpy arrays per direction — ``succ_indptr``/``succ_indices`` and
``pred_indptr``/``pred_indices`` — kept redundantly alongside plain python
lists so that both vectorized kernels (local search, cost evaluation) and
simple per-node loops (generators, ILP construction) get constant-time
access to the structure they need.  All schedulers in this package operate
on this representation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["ComputationalDAG", "DagValidationError"]


class DagValidationError(ValueError):
    """Raised when a graph violates the DAG invariants (cycles, bad weights)."""


def _kahn_order(n: int, children: List[List[int]], parents: List[List[int]]) -> List[int]:
    """Topological order by Kahn's algorithm; shorter than ``n`` on a cycle."""
    indeg = [len(parents[v]) for v in range(n)]
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order: List[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order


@dataclass
class ComputationalDAG:
    """A directed acyclic graph with per-node work and communication weights.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are identified by the integers ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs meaning "``u`` must finish before ``v``
        starts" (the output of ``u`` is an input of ``v``).
    work:
        Work weights ``w(v)``; defaults to 1 for every node.
    comm:
        Communication weights ``c(v)``; defaults to 1 for every node.
    name:
        Optional human readable name (used in experiment reports).
    memory:
        Memory weights ``m(v)`` used by the memory-constrained model
        variant (the footprint of ``v``'s data on the processor computing
        it); defaults to the work weights, the proxy the paper's
        memory-constrained experiments use.
    """

    n: int
    edges: Sequence[Tuple[int, int]] = field(default_factory=list)
    work: Optional[Sequence[int]] = None
    comm: Optional[Sequence[int]] = None
    name: str = "dag"
    memory: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DagValidationError("number of nodes must be non-negative")
        self._assign_edges(self.edges)

        if self.work is None:
            self.work = np.ones(self.n, dtype=np.int64)
        else:
            self.work = np.asarray(self.work, dtype=np.int64).copy()
        if self.comm is None:
            self.comm = np.ones(self.n, dtype=np.int64)
        else:
            self.comm = np.asarray(self.comm, dtype=np.int64).copy()
        if self.memory is None:
            self.memory = np.asarray(self.work, dtype=np.int64).copy()
        else:
            self.memory = np.asarray(self.memory, dtype=np.int64).copy()
        if len(self.work) != self.n or len(self.comm) != self.n or len(self.memory) != self.n:
            raise DagValidationError("weight arrays must have length n")
        if np.any(self.work < 0) or np.any(self.comm < 0) or np.any(self.memory < 0):
            raise DagValidationError("node weights must be non-negative")

        # From here on, replacing ``edges`` rebuilds the whole structure
        # (see __setattr__), so a stale adjacency or CSR view is impossible.
        self._edges_hooked = True

    def _assign_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """(Re)build adjacency from an edge iterable and re-validate.

        Called from ``__post_init__`` and whenever the ``edges`` attribute is
        replaced: deduplicates and sorts the edges into an immutable tuple,
        rebuilds the ``_children``/``_parents`` lists, drops the derived
        caches and eagerly re-checks acyclicity.
        """
        children: List[List[int]] = [[] for _ in range(self.n)]
        parents: List[List[int]] = [[] for _ in range(self.n)]
        edge_set: Set[Tuple[int, int]] = set()
        for (u, v) in edges:
            u = int(u)
            v = int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DagValidationError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise DagValidationError(f"self-loop on node {u}")
            if (u, v) in edge_set:
                continue
            edge_set.add((u, v))
            children[u].append(v)
            parents[v].append(u)
        # Validate acyclicity on the locally built adjacency BEFORE anything
        # is committed, so a rejected reassignment leaves the DAG unchanged.
        order = _kahn_order(self.n, children, parents)
        if len(order) != self.n:
            raise DagValidationError("graph contains a directed cycle")
        # A tuple, assigned behind __setattr__'s back: in-place mutation is
        # impossible and replacement re-enters this method.
        object.__setattr__(self, "edges", tuple(sorted(edge_set)))
        self._children: List[List[int]] = children
        self._parents: List[List[int]] = parents
        self._topo_cache: Optional[List[int]] = order
        self._csr_cache: Optional[Tuple[np.ndarray, ...]] = None

    def __setattr__(self, name: str, value: object) -> None:
        if name == "edges" and getattr(self, "_edges_hooked", False):
            # Replacing the edge list is the one supported structural
            # mutation: rebuild adjacency, caches and validity eagerly so no
            # accessor can ever observe a stale view.
            self._assign_edges(value)
            return
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of (deduplicated) edges."""
        return len(self.edges)

    def nodes(self) -> range:
        """Iterate over node identifiers ``0..n-1``."""
        return range(self.n)

    def children(self, v: int) -> List[int]:
        """Direct successors of ``v`` (nodes that consume its output)."""
        return self._children[v]

    def parents(self, v: int) -> List[int]:
        """Direct predecessors of ``v`` (nodes whose output ``v`` consumes)."""
        return self._parents[v]

    # `successors`/`predecessors` aliases follow networkx naming.
    successors = children
    predecessors = parents

    def out_degree(self, v: int) -> int:
        return len(self._children[v])

    def in_degree(self, v: int) -> int:
        return len(self._parents[v])

    def sources(self) -> List[int]:
        """Nodes with no predecessors."""
        return [v for v in range(self.n) if not self._parents[v]]

    def sinks(self) -> List[int]:
        """Nodes with no successors."""
        return [v for v in range(self.n) if not self._children[v]]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._children[u]

    def total_work(self) -> int:
        """Sum of all work weights."""
        return int(np.sum(self.work))

    def total_comm(self) -> int:
        """Sum of all communication weights."""
        return int(np.sum(self.comm))

    def total_memory(self) -> int:
        """Sum of all memory weights."""
        return int(np.sum(self.memory))

    # ------------------------------------------------------------------
    # Cache handling
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """Drop the cached topological order and CSR arrays.

        The structure is documented as immutable and the one supported
        mutation — replacing ``edges`` — already rebuilds everything through
        ``__setattr__``, so nothing in this module calls this after
        construction; it exists for any future helper that mutates the
        adjacency *in place* (which MUST call it so the accessors rebuild
        instead of silently serving stale arrays).
        """
        self._topo_cache = None
        self._csr_cache = None

    # ------------------------------------------------------------------
    # CSR adjacency (the canonical array representation)
    # ------------------------------------------------------------------
    def _build_csr(self) -> Tuple[np.ndarray, ...]:
        if self._csr_cache is None:
            m = len(self.edges)
            edge_u = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=m)
            edge_v = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=m)
            succ_indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(edge_u, minlength=self.n), out=succ_indptr[1:])
            # ``edges`` is sorted by (u, v), so the target column already is
            # the successor index array; predecessors need a stable sort by v.
            succ_indices = edge_v
            pred_indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(edge_v, minlength=self.n), out=pred_indptr[1:])
            pred_indices = edge_u[np.argsort(edge_v, kind="stable")]
            self._csr_cache = (
                succ_indptr, succ_indices, pred_indptr, pred_indices, edge_u, edge_v,
            )
        return self._csr_cache

    @property
    def succ_indptr(self) -> np.ndarray:
        """CSR row pointers of the successor adjacency (length ``n + 1``)."""
        return self._build_csr()[0]

    @property
    def succ_indices(self) -> np.ndarray:
        """CSR column indices of the successor adjacency (length ``m``)."""
        return self._build_csr()[1]

    @property
    def pred_indptr(self) -> np.ndarray:
        """CSR row pointers of the predecessor adjacency (length ``n + 1``)."""
        return self._build_csr()[2]

    @property
    def pred_indices(self) -> np.ndarray:
        """CSR column indices of the predecessor adjacency (length ``m``)."""
        return self._build_csr()[3]

    @property
    def edge_sources(self) -> np.ndarray:
        """Source endpoint of every edge, aligned with :attr:`edge_targets`."""
        return self._build_csr()[4]

    @property
    def edge_targets(self) -> np.ndarray:
        """Target endpoint of every edge, aligned with :attr:`edge_sources`."""
        return self._build_csr()[5]

    def successors_array(self, v: int) -> np.ndarray:
        """Direct successors of ``v`` as a numpy array view (CSR slice)."""
        indptr, indices = self._build_csr()[0], self._build_csr()[1]
        return indices[indptr[v]:indptr[v + 1]]

    def predecessors_array(self, v: int) -> np.ndarray:
        """Direct predecessors of ``v`` as a numpy array view (CSR slice)."""
        csr = self._build_csr()
        return csr[3][csr[2][v]:csr[2][v + 1]]

    # ------------------------------------------------------------------
    # Orderings and structural queries
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """A topological ordering of the nodes (Kahn's algorithm).

        Raises :class:`DagValidationError` if the graph contains a cycle.
        The result is cached because the structure is immutable.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        order = _kahn_order(self.n, self._children, self._parents)
        if len(order) != self.n:
            raise DagValidationError("graph contains a directed cycle")
        self._topo_cache = order
        return list(order)

    # Each level query is one sweep over the cached topological order:
    # O(n + m) list operations, whatever the depth of the DAG.

    def node_levels(self) -> np.ndarray:
        """Level (longest edge-count distance from any source) for each node.

        A node's level is one more than the deepest level among its parents
        (0 for a source).
        """
        levels = [0] * self.n
        children = self._children
        for v in self.topological_order():
            below = levels[v] + 1
            for w in children[v]:
                if levels[w] < below:
                    levels[w] = below
        return np.array(levels, dtype=np.int64)

    def depth(self) -> int:
        """Number of levels on the longest path (1 for a single node, 0 if empty)."""
        if self.n == 0:
            return 0
        return int(self.node_levels().max()) + 1

    def level_sets(self) -> List[List[int]]:
        """Nodes grouped by :meth:`node_levels` (the DAG "wavefronts")."""
        if self.n == 0:
            return []
        levels = self.node_levels()
        order = np.argsort(levels, kind="stable")
        bounds = np.searchsorted(levels[order], np.arange(int(levels.max()) + 2))
        return [order[bounds[k]:bounds[k + 1]].tolist() for k in range(len(bounds) - 1)]

    def bottom_level(self) -> np.ndarray:
        """Bottom level of each node: the maximum total work on any path
        starting at the node (including the node itself).

        This is the classical list-scheduling priority used by BL-EST.
        Swept in reverse topological order: when a node is reached, all of
        its children are final, so its heaviest outgoing path is too.
        """
        work = self.work.tolist()
        heaviest_child = [0] * self.n
        bl = [0] * self.n
        parents = self._parents
        for v in reversed(self.topological_order()):
            b = work[v] + heaviest_child[v]
            bl[v] = b
            for u in parents[v]:
                if heaviest_child[u] < b:
                    heaviest_child[u] = b
        return np.array(bl, dtype=np.int64)

    def top_level(self) -> np.ndarray:
        """Top level of each node: maximum total work on any path ending at
        the node, excluding the node itself."""
        work = self.work.tolist()
        tl = [0] * self.n
        children = self._children
        for v in self.topological_order():
            t = tl[v] + work[v]
            for w in children[v]:
                if tl[w] < t:
                    tl[w] = t
        return np.array(tl, dtype=np.int64)

    def critical_path_work(self) -> int:
        """Total work along the heaviest directed path."""
        if self.n == 0:
            return 0
        return int(self.bottom_level().max())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> Tuple["ComputationalDAG", Dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the new DAG and a mapping ``old node id -> new node id``.
        """
        keep = sorted(set(int(v) for v in nodes))
        mapping = {old: new for new, old in enumerate(keep)}
        edges = [
            (mapping[u], mapping[v])
            for (u, v) in self.edges
            if u in mapping and v in mapping
        ]
        work = [int(self.work[v]) for v in keep]
        comm = [int(self.comm[v]) for v in keep]
        memory = [int(self.memory[v]) for v in keep]
        sub = ComputationalDAG(
            len(keep), edges, work, comm, name=f"{self.name}-sub", memory=memory
        )
        return sub, mapping

    def largest_weakly_connected_component(self) -> Tuple["ComputationalDAG", Dict[int, int]]:
        """Induced subgraph on the largest weakly connected component.

        The paper keeps only the largest component of DAGs extracted from
        GraphBLAS runs (Appendix B.1); generators reuse this utility.
        """
        if self.n == 0:
            return self, {}
        comp = np.full(self.n, -1, dtype=np.int64)
        current = 0
        for start in range(self.n):
            if comp[start] != -1:
                continue
            queue = deque([start])
            comp[start] = current
            while queue:
                v = queue.popleft()
                for w in self._children[v] + self._parents[v]:
                    if comp[w] == -1:
                        comp[w] = current
                        queue.append(w)
            current += 1
        sizes = np.bincount(comp, minlength=current)
        best = int(np.argmax(sizes))
        return self.subgraph([v for v in range(self.n) if comp[v] == best])

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ComputationalDAG(name={self.name!r}, n={self.n}, m={self.num_edges}, "
            f"total_work={self.total_work()}, total_comm={self.total_comm()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComputationalDAG):
            return NotImplemented
        return (
            self.n == other.n
            and list(self.edges) == list(other.edges)
            and np.array_equal(self.work, other.work)
            and np.array_equal(self.comm, other.comm)
            and np.array_equal(self.memory, other.memory)
        )

    def __hash__(self) -> int:  # dataclass with eq needs explicit hash opt-out
        return id(self)
