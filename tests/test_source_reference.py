"""The Source heuristic matches its full-rescan reference loop.

:class:`repro.heuristics.source.SourceScheduler` collects the next
superstep's sources from the children whose last parent was just assigned,
instead of rescanning all ``n`` nodes every superstep.  The sources come out
in the same ascending id order, which the initial clustering and the
pull-in loop depend on, so every schedule must equal the reference loop
below.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.coarse import coarse_conjugate_gradient, coarse_pagerank
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import cg_dag, exp_dag, knn_dag, spmv_dag
from repro.graphs.random import erdos_renyi_dag, random_layered_dag
from repro.heuristics.source import SourceScheduler
from repro.model.machine import BspMachine


def reference_source(dag: ComputationalDAG, machine: BspMachine):
    """Paper Alg. 2 with a scan of all nodes per superstep; returns (proc, step)."""
    n = dag.n
    P = machine.P
    proc = np.full(n, -1, dtype=np.int64)
    step = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return proc, step

    remaining_parents = np.array([dag.in_degree(v) for v in range(n)], dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)

    def mark_assigned(v: int, p: int, s: int) -> None:
        proc[v] = p
        step[v] = s
        assigned[v] = True
        for child in dag.children(v):
            remaining_parents[child] -= 1

    superstep = 0
    current_proc = 0
    while not assigned.all():
        sources = [v for v in range(n) if not assigned[v] and remaining_parents[v] == 0]
        if not sources:
            raise RuntimeError("Source heuristic found no available source nodes")

        if superstep == 0:
            clusters = SourceScheduler._cluster_initial_sources(dag, sources)
            for cluster in clusters:
                for v in cluster:
                    mark_assigned(v, current_proc, superstep)
                current_proc = (current_proc + 1) % P
        else:
            ordered = sorted(sources, key=lambda v: (-int(dag.work[v]), v))
            for v in ordered:
                mark_assigned(v, current_proc, superstep)
                current_proc = (current_proc + 1) % P

        for v in sources:
            for u in dag.children(v):
                if assigned[u] or remaining_parents[u] != 0:
                    continue
                parent_procs = {int(proc[w]) for w in dag.parents(u)}
                if len(parent_procs) == 1 and -1 not in parent_procs:
                    mark_assigned(u, parent_procs.pop(), superstep)

        superstep += 1

    return proc, step


def _assert_matches(dag: ComputationalDAG, machine: BspMachine) -> None:
    ref_proc, ref_step = reference_source(dag, machine)
    out = SourceScheduler().schedule(dag, machine)
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


@pytest.mark.parametrize("P", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("dag", DAGS, ids=lambda d: d.name)
def test_matches_reference(dag, P):
    _assert_matches(dag, BspMachine(P=P, g=1, l=5))


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
@given(dag=random_dags(), P=st.sampled_from([1, 2, 3, 5, 8]))
def test_random_dags_match_reference(dag, P):
    _assert_matches(dag, BspMachine(P=P, g=1, l=5))
