"""Source: layer-by-layer initialization heuristic (paper Alg. 2).

In every iteration the heuristic takes the current source nodes of the (not
yet assigned part of the) DAG and forms a new superstep from them:

* in the first superstep the sources are clustered — two sources sharing a
  direct successor join the same cluster — and the clusters are dealt to
  processors round-robin, which keeps "siblings" together;
* in later supersteps the sources are sorted by decreasing work weight and
  dealt to processors round-robin, balancing the work cost;
* afterwards, any direct successor whose predecessors have all already been
  assigned to the *same* processor is pulled into the current superstep on
  that processor, avoiding unnecessary extra supersteps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..scheduler import Scheduler

__all__ = ["SourceScheduler"]


class SourceScheduler(Scheduler):
    """Layered round-robin initializer (the ``Source`` heuristic)."""

    name = "Source"

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        n = dag.n
        P = machine.P
        if n == 0:
            return BspSchedule(dag, machine, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        proc = [-1] * n
        step = [-1] * n

        parents = [dag.parents(v) for v in range(n)]
        children = [dag.children(v) for v in range(n)]
        work = dag.work.tolist()
        remaining_parents = [len(parents[v]) for v in range(n)]
        assigned = [False] * n
        assigned_count = 0
        # Children whose last parent was assigned this superstep: every
        # source of the next superstep is among them.
        freed: List[int] = []

        def mark_assigned(v: int, p: int, s: int) -> None:
            nonlocal assigned_count
            proc[v] = p
            step[v] = s
            assigned[v] = True
            assigned_count += 1
            for child in children[v]:
                remaining_parents[child] -= 1
                if remaining_parents[child] == 0:
                    freed.append(child)

        superstep = 0
        current_proc = 0
        sources = [v for v in range(n) if remaining_parents[v] == 0]
        while assigned_count < n:
            if not sources:
                raise RuntimeError("Source heuristic found no available source nodes")
            freed.clear()

            if superstep == 0:
                clusters = self._cluster_initial_sources(dag, sources)
                for cluster in clusters:
                    for v in cluster:
                        mark_assigned(v, current_proc, superstep)
                    current_proc = (current_proc + 1) % P
            else:
                ordered = sorted(sources, key=lambda v: (-work[v], v))
                for v in ordered:
                    mark_assigned(v, current_proc, superstep)
                    current_proc = (current_proc + 1) % P

            # Pull in successors whose predecessors all live on one processor.
            for v in sources:
                for u in children[v]:
                    if assigned[u] or remaining_parents[u] != 0:
                        continue
                    parent_procs = {proc[w] for w in parents[u]}
                    if len(parent_procs) == 1 and -1 not in parent_procs:
                        mark_assigned(u, parent_procs.pop(), superstep)

            superstep += 1
            # Ascending ids, which the clustering and the pull-in depend on.
            sources = sorted(v for v in freed if not assigned[v])

        return BspSchedule(
            dag, machine, np.array(proc, dtype=np.int64), np.array(step, dtype=np.int64)
        )

    @staticmethod
    def _cluster_initial_sources(dag: ComputationalDAG, sources: List[int]) -> List[List[int]]:
        """Group the initial sources: sources sharing a successor cluster together."""
        cluster_of: Dict[int, int] = {}
        clusters: List[List[int]] = []

        # Index sources by their successors so sharing is detected in one pass.
        by_successor: Dict[int, List[int]] = {}
        for v in sources:
            for u in dag.children(v):
                by_successor.setdefault(u, []).append(v)

        for _, members in sorted(by_successor.items()):
            if len(members) < 2:
                continue
            # Merge all members into the cluster of the first already-clustered
            # member, or create a new cluster.
            target: Optional[int] = None
            for v in members:
                if v in cluster_of:
                    target = cluster_of[v]
                    break
            if target is None:
                target = len(clusters)
                clusters.append([])
            for v in members:
                if v not in cluster_of:
                    cluster_of[v] = target
                    clusters[target].append(v)

        # Remaining sources become singleton clusters.
        for v in sources:
            if v not in cluster_of:
                cluster_of[v] = len(clusters)
                clusters.append([v])
        return [c for c in clusters if c]
