"""BSPg: the BSP-tailored greedy initialization heuristic (paper Alg. 1).

BSPg simulates concrete start/finish times inside each superstep (like a
classical greedy scheduler) but only ever assigns a node to a processor when
this is possible *without closing the current computation phase*: all of the
node's predecessors must already be available on that processor, i.e. they
were computed on the same processor or in an earlier superstep.  When at
least half of the processors become idle (no such node exists for them), the
superstep is closed and the nodes that were blocked on cross-processor data
become available to everyone in the next superstep.

Tie-breaking between candidate nodes uses the paper's score
``sum over predecessors u of c(u) / outdeg(u)`` restricted to predecessors
that (or whose successors) are already on the candidate processor — an
estimate of the communication that can be avoided in the future by keeping
the node local.  Among equal scores the lowest node id wins.

Scores are kept up to date instead of rescanning the ready pool on every
pick, which makes the heuristic near-linear in the size of the DAG:

* ``touch[u]`` is the set of processors holding ``u`` or one of its
  children.  Assignments are final, so the set only grows, and the score of
  ``v`` on ``p`` is the sum of ``weight[u] = c(u) / outdeg(u)`` over the
  parents ``u`` of ``v`` whose ``touch[u]`` contains ``p``.
* ``ready_all`` (ready nodes any processor may take) only shrinks inside a
  superstep.  It is served by one lazy max-heap of ``(-score, v)`` per
  processor holding positive scores only, plus one lazy min-heap of node ids
  for processors on which every score is zero.  The heaps are rebuilt when a
  superstep starts; when an assignment adds ``p`` to ``touch[u]``, fresh
  entries are pushed for the children of ``u`` still in ``ready_all``.  An
  entry is valid only while its node is in ``ready_all`` and its score is
  the current one.
* ``ready_p[p]`` (nodes freed mid-superstep that only ``p`` may take) stays
  small and is scanned directly.

Every score is recomputed from scratch, in parent order, so the floating-
point sums — and with the unchanged tie-break, every schedule — are
bit-identical to rescoring each candidate from its parents and their
children on every pick (``tests/test_bspg_reference.py`` checks this).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..scheduler import Scheduler

__all__ = ["BspGreedyScheduler"]


class BspGreedyScheduler(Scheduler):
    """Greedy BSP scheduler (the ``BSPg`` initializer of the paper)."""

    name = "BSPg"

    def __init__(self, idle_fraction: float = 0.5) -> None:
        """``idle_fraction``: close the superstep once this fraction of the
        processors can no longer be assigned work without communication."""
        if not (0.0 < idle_fraction <= 1.0):
            raise ValueError("idle_fraction must be in (0, 1]")
        self.idle_fraction = idle_fraction

    # ------------------------------------------------------------------
    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        n = dag.n
        P = machine.P
        if n == 0:
            return BspSchedule(dag, machine, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

        parents = [dag.parents(v) for v in range(n)]
        children = [dag.children(v) for v in range(n)]
        work = [float(w) for w in dag.work]
        weight = [float(c) / max(len(children[u]), 1) for u, c in enumerate(dag.comm)]
        proc = [-1] * n
        step = [-1] * n
        touch: List[Set[int]] = [set() for _ in range(n)]
        remaining_parents = [len(parents[v]) for v in range(n)]

        # Ready bookkeeping (see module docstring / paper Algorithm 1):
        #   ready      — all nodes whose predecessors have finished;
        #   ready_p[p] — ready nodes executable on p in the current superstep;
        #   ready_all  — ready nodes executable on any processor this superstep.
        ready: Set[int] = {v for v in range(n) if remaining_parents[v] == 0}
        ready_p: List[Set[int]] = [set() for _ in range(P)]
        ready_all: Set[int] = set(ready)
        # Lazy heaps over ready_all: positive scores per processor, ids overall.
        score_heaps: List[List[Tuple[float, int]]] = [[] for _ in range(P)]
        id_heap: List[int] = sorted(ready_all)

        superstep = 0
        end_step = False
        free = [True] * P
        # Min-heap of (finish_time, node, processor) of currently running nodes.
        running: List[Tuple[float, int, int]] = []
        assigned_count = 0
        now = 0.0

        def score(v: int, p: int) -> float:
            s = 0.0
            for u in parents[v]:
                if p in touch[u]:
                    s += weight[u]
            return s

        def choose_node(p: int) -> Optional[int]:
            """Pick the next node for processor ``p`` (paper's ChooseNode)."""
            pool = ready_p[p]
            if pool:
                best_v = -1
                best_score = -1.0
                for v in pool:
                    s = score(v, p)
                    if s > best_score or (s == best_score and v < best_v):
                        best_score = s
                        best_v = v
                return best_v
            if not ready_all:
                return None
            heap = score_heaps[p]
            while heap:
                neg, v = heap[0]
                if v in ready_all and -neg == score(v, p):
                    return v
                heapq.heappop(heap)
            # Every score on p is zero: the lowest id wins.
            while id_heap[0] not in ready_all:
                heapq.heappop(id_heap)
            return id_heap[0]

        def assign(v: int, p: int, time: float) -> None:
            nonlocal assigned_count
            ready.discard(v)
            # v came from ready_p[p] or ready_all: within a superstep the two
            # are disjoint, and a node joins at most one ready_p.
            ready_all.discard(v)
            ready_p[p].discard(v)
            proc[v] = p
            step[v] = superstep
            touch[v].add(p)
            for u in parents[v]:
                held = touch[u]
                if p in held:
                    continue
                held.add(p)
                if weight[u] > 0.0:
                    for c in children[u]:
                        if c in ready_all:
                            heapq.heappush(score_heaps[p], (-score(c, p), c))
            free[p] = False
            heapq.heappush(running, (time + work[v], v, p))
            assigned_count += 1

        def assignment_round(time: float) -> int:
            """Give work to free processors; return number of assignments."""
            made = 0
            progress = True
            while progress:
                progress = False
                for p in range(P):
                    if not free[p]:
                        continue
                    v = choose_node(p)
                    if v is not None:
                        assign(v, p, time)
                        made += 1
                        progress = True
            return made

        def idle_processors() -> int:
            return sum(
                1 for p in range(P) if free[p] and not ready_p[p] and not ready_all
            )

        def start_new_superstep() -> None:
            nonlocal superstep, end_step, id_heap
            superstep += 1
            end_step = False
            for p in range(P):
                ready_p[p].clear()
            ready_all.clear()
            ready_all.update(ready)
            for heap in score_heaps:
                heap.clear()
            for v in ready_all:
                procs: Set[int] = set()
                for u in parents[v]:
                    if weight[u] > 0.0:
                        procs |= touch[u]
                for p in procs:
                    score_heaps[p].append((-score(v, p), v))
            for heap in score_heaps:
                heapq.heapify(heap)
            id_heap = sorted(ready_all)

        # Initial assignment at time 0.
        assignment_round(now)
        if not ready_all and idle_processors() >= self.idle_fraction * P:
            end_step = True

        while assigned_count < n or running:
            if not running:
                # Nothing is executing: either the superstep ended naturally
                # or nothing could be assigned; start the next superstep.
                if assigned_count >= n:
                    break
                start_new_superstep()
                made = assignment_round(now)
                if made == 0 and not running:
                    # Safety net: with the ready bookkeeping above this cannot
                    # happen for a DAG, but fail loudly rather than spin.
                    raise RuntimeError("BSPg made no progress")
                if not ready_all and idle_processors() >= self.idle_fraction * P:
                    end_step = True
                continue

            finish_time, v, p = heapq.heappop(running)
            now = finish_time
            free[p] = True
            # Collect every node finishing at exactly this time before
            # assigning new work, mirroring the pseudocode's batch handling.
            batch = [(v, p)]
            while running and running[0][0] == finish_time:
                _, v2, p2 = heapq.heappop(running)
                free[p2] = True
                batch.append((v2, p2))

            for (node, node_proc) in batch:
                for child in children[node]:
                    remaining_parents[child] -= 1
                    if remaining_parents[child] == 0:
                        ready.add(child)
                        # The child may join the current superstep on the
                        # processor that owns all of its current-superstep
                        # predecessors.
                        ok = True
                        for u in parents[child]:
                            if step[u] == superstep and proc[u] != node_proc:
                                ok = False
                                break
                        if ok:
                            ready_p[node_proc].add(child)

            if not end_step:
                assignment_round(now)
                if not ready_all and idle_processors() >= self.idle_fraction * P:
                    end_step = True

        return BspSchedule(
            dag, machine, np.array(proc, dtype=np.int64), np.array(step, dtype=np.int64)
        )
