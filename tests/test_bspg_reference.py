"""BSPg with kept-up-to-date candidate scores matches its rescanning reference.

:class:`repro.heuristics.bspg.BspGreedyScheduler` keeps, per node, the set
of processors holding the node or one of its children, and serves the
``ready_all`` pool from lazy per-processor heaps instead of rescoring every
ready node on every pick.  Scores are always recomputed from scratch in
parent order and the tie-break (highest score, then lowest id) is the same,
so every schedule must equal the reference loop below, which rescans the
whole pool and rescores each candidate from its parents and their children.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.coarse import coarse_conjugate_gradient, coarse_pagerank
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import cg_dag, exp_dag, knn_dag, spmv_dag
from repro.graphs.random import erdos_renyi_dag, random_layered_dag
from repro.heuristics.bspg import BspGreedyScheduler
from repro.model.machine import BspMachine


def reference_bspg(dag: ComputationalDAG, machine: BspMachine, idle_fraction: float = 0.5):
    """Paper Alg. 1 with a full pool rescan per pick; returns (proc, step)."""
    n = dag.n
    P = machine.P
    proc = np.full(n, -1, dtype=np.int64)
    step = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return proc, step

    remaining_parents = np.array([dag.in_degree(v) for v in range(n)], dtype=np.int64)
    finished = np.zeros(n, dtype=bool)

    ready: Set[int] = set()
    ready_p: List[Set[int]] = [set() for _ in range(P)]
    ready_all: Set[int] = set()

    for v in range(n):
        if remaining_parents[v] == 0:
            ready.add(v)
    ready_all = set(ready)

    superstep = 0
    end_step = False
    free = [True] * P
    running: List[Tuple[float, int, int]] = []
    assigned_count = 0
    now = 0.0

    def choose_node(p: int) -> Optional[int]:
        pool = ready_p[p] if ready_p[p] else ready_all
        if not pool:
            return None
        best_v = None
        best_score = -1.0
        for v in pool:
            score = 0.0
            for u in dag.parents(v):
                on_p = proc[u] == p
                if not on_p:
                    on_p = any(proc[w] == p for w in dag.children(u))
                if on_p:
                    outdeg = dag.out_degree(u)
                    score += float(dag.comm[u]) / max(outdeg, 1)
            if score > best_score or (score == best_score and (best_v is None or v < best_v)):
                best_score = score
                best_v = v
        return best_v

    def assign(v: int, p: int, time: float) -> None:
        nonlocal assigned_count
        ready.discard(v)
        ready_all.discard(v)
        for q in range(P):
            ready_p[q].discard(v)
        proc[v] = p
        step[v] = superstep
        free[p] = False
        heapq.heappush(running, (time + float(dag.work[v]), v, p))
        assigned_count += 1

    def assignment_round(time: float) -> int:
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
        return sum(1 for p in range(P) if free[p] and not ready_p[p] and not ready_all)

    def start_new_superstep() -> None:
        nonlocal superstep, end_step
        superstep += 1
        end_step = False
        for p in range(P):
            ready_p[p].clear()
        ready_all.clear()
        ready_all.update(ready)

    assignment_round(now)
    if not ready_all and idle_processors() >= idle_fraction * P:
        end_step = True

    while assigned_count < n or running:
        if not running:
            if assigned_count >= n:
                break
            start_new_superstep()
            made = assignment_round(now)
            if made == 0 and not running:
                raise RuntimeError("BSPg made no progress")
            if not ready_all and idle_processors() >= idle_fraction * P:
                end_step = True
            continue

        finish_time, v, p = heapq.heappop(running)
        now = finish_time
        finished[v] = True
        free[p] = True
        batch = [(v, p)]
        while running and running[0][0] == finish_time:
            _, v2, p2 = heapq.heappop(running)
            finished[v2] = True
            free[p2] = True
            batch.append((v2, p2))

        for (node, node_proc) in batch:
            for child in dag.children(node):
                remaining_parents[child] -= 1
                if remaining_parents[child] == 0:
                    ready.add(child)
                    ok = True
                    for u in dag.parents(child):
                        if step[u] == superstep and proc[u] != node_proc:
                            ok = False
                            break
                    if ok:
                        ready_p[node_proc].add(child)

        if not end_step:
            assignment_round(now)
            if not ready_all and idle_processors() >= idle_fraction * P:
                end_step = True

    return proc, step


def _assert_matches(dag: ComputationalDAG, machine: BspMachine, idle_fraction: float) -> None:
    ref_proc, ref_step = reference_bspg(dag, machine, idle_fraction)
    out = BspGreedyScheduler(idle_fraction=idle_fraction).schedule(dag, machine)
    assert np.array_equal(out.proc, ref_proc)
    assert np.array_equal(out.step, ref_step)


DAGS = [
    spmv_dag(10, q=0.3, seed=3),
    exp_dag(8, k=2, q=0.3, seed=5),
    coarse_conjugate_gradient(4),
    coarse_pagerank(6),
    random_layered_dag(8, 12, edge_prob=0.3, seed=7),
    erdos_renyi_dag(60, 0.08, seed=11),
    cg_dag(6, k=2, q=0.3, seed=2),
    knn_dag(12, k=3, q=0.3, seed=4),
]


@pytest.mark.parametrize("hierarchical", [False, True], ids=["uniform", "hierarchical"])
@pytest.mark.parametrize("P", [1, 2, 8, 64])
@pytest.mark.parametrize("dag", DAGS, ids=lambda d: d.name)
def test_matches_reference(dag, P, hierarchical):
    machine = BspMachine.hierarchical(P, delta=3.0, g=1, l=5) if hierarchical else BspMachine(P=P, g=1, l=5)
    for idle_fraction in (0.25, 0.5, 1.0):
        _assert_matches(dag, machine, idle_fraction)


@st.composite
def random_dags(draw, max_nodes: int = 24):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        k = draw(st.integers(min_value=0, max_value=min(4, v)))
        parents = draw(st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True))
        edges.extend((u, v) for u in parents)
    work = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    comm = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return ComputationalDAG(n, edges, work, comm, name="hypothesis")


@settings(max_examples=150, deadline=None)
@given(
    dag=random_dags(),
    P=st.sampled_from([1, 2, 3, 5, 8]),
    idle_fraction=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_random_dags_match_reference(dag, P, idle_fraction):
    _assert_matches(dag, BspMachine(P=P, g=1, l=5), idle_fraction)
