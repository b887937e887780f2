"""The work-stealing simulation matches its straight-line reference loop.

:func:`repro.baselines.cilk.simulate_work_stealing` keeps a count of ready
tasks so that an idle processor returns at once when every stack is empty,
instead of scanning all P stacks for a steal victim.  Victims are still
drawn only from non-empty candidate lists, so the random stream — and with
it every schedule — must equal the reference loop below, which scans the
stacks at every assignment attempt.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np
import pytest

from repro.baselines.cilk import simulate_work_stealing
from repro.graphs.coarse import coarse_conjugate_gradient, coarse_pagerank
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import exp_dag, spmv_dag
from repro.graphs.random import erdos_renyi_dag, random_layered_dag
from repro.model.machine import BspMachine


def reference_work_stealing(dag: ComputationalDAG, machine: BspMachine, seed: int):
    """Event-driven work stealing with a full victim scan per attempt; (proc, start)."""
    n = dag.n
    P = machine.P
    rng = np.random.default_rng(seed)
    proc = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.float64)
    remaining_parents = np.diff(dag.pred_indptr).copy()
    stacks: List[Deque[int]] = [deque() for _ in range(P)]
    for v in dag.topological_order():
        if remaining_parents[v] == 0:
            stacks[0].append(v)
    events: List[Tuple[float, int, int, int]] = []
    seq = 0
    busy = [False] * P

    def try_assign(p: int, now: float) -> bool:
        nonlocal seq
        node: Optional[int] = None
        if stacks[p]:
            node = stacks[p].pop()
        else:
            candidates = [q for q in range(P) if q != p and stacks[q]]
            if candidates:
                victim = int(rng.choice(candidates))
                node = stacks[victim].popleft()
        if node is None:
            return False
        proc[node] = p
        start[node] = now
        busy[p] = True
        seq += 1
        heapq.heappush(events, (now + float(dag.work[node]), seq, node, p))
        return True

    for p in range(P):
        try_assign(p, 0.0)
    while events:
        time, _, node, p = heapq.heappop(events)
        busy[p] = False
        for child in dag.children(node):
            remaining_parents[child] -= 1
            if remaining_parents[child] == 0:
                stacks[p].append(child)
        for q in [p] + [q for q in range(P) if q != p]:
            if not busy[q]:
                try_assign(q, time)
    return proc, start


DAGS = [
    spmv_dag(10, q=0.3, seed=3),
    exp_dag(8, k=2, q=0.3, seed=5),
    coarse_conjugate_gradient(4),
    coarse_pagerank(6),
    random_layered_dag(8, 12, edge_prob=0.3, seed=7),
    erdos_renyi_dag(60, 0.08, seed=11),
]


@pytest.mark.parametrize("P", [1, 2, 8, 64])
@pytest.mark.parametrize("dag", DAGS, ids=lambda d: d.name)
def test_matches_reference(dag, P):
    machine = BspMachine(P=P, g=1, l=5)
    for seed in (0, 1, 7):
        ref_proc, ref_start = reference_work_stealing(dag, machine, seed)
        out = simulate_work_stealing(dag, machine, seed=seed)
        assert np.array_equal(out.proc, ref_proc)
        assert np.array_equal(out.start, ref_start)
