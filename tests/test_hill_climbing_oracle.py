"""HC applies exactly the moves of the naive probe-every-node scan.

:func:`repro.localsearch.hill_climbing.hill_climb` skips nodes whose last
probe is provably still non-improving and prefetches probe results in
batches that an applied move may invalidate.  None of that may change the
search: this module keeps a straight-line reference scan — for every node in
order, :meth:`~LocalSearchState.candidate_moves`, then
:meth:`~LocalSearchState.move_deltas`, then the first or best improving
move, then :meth:`~LocalSearchState.apply_move` — with the same pass and
``max_moves``/``max_passes`` accounting, and requires identical schedules,
move counts, pass counts and local-optimum flags.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import exp_dag, spmv_dag
from repro.localsearch.hill_climbing import _EPS, hill_climb
from repro.localsearch.state import LocalSearchState
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule


def reference_hill_climb(
    schedule: BspSchedule,
    variant: str,
    max_moves: Optional[int] = None,
    max_passes: Optional[int] = None,
):
    """Probe every node on every visit; returns (schedule, moves, passes, optimum)."""
    state = LocalSearchState(schedule)
    moves_applied = 0
    passes = 0

    def out_of_budget() -> bool:
        return (max_moves is not None and moves_applied >= max_moves) or (
            max_passes is not None and passes >= max_passes
        )

    improved_any = True
    while improved_any and not out_of_budget():
        improved_any = False
        passes += 1
        for v in range(state.dag.n):
            moves = state.candidate_moves(v)
            if not moves:
                continue
            deltas = state.move_deltas(v, moves)
            if out_of_budget():
                break
            if variant == "first":
                improving = np.nonzero(deltas < -_EPS)[0]
                chosen = int(improving[0]) if improving.size else None
            else:
                chosen = int(np.argmin(deltas))
                if deltas[chosen] >= -_EPS:
                    chosen = None
            if chosen is None:
                continue
            _, p, s = moves[chosen]
            state.apply_move(v, p, s)
            moves_applied += 1
            improved_any = True
    return state.to_schedule(), moves_applied, passes, not improved_any


def _assert_same_search(initial: BspSchedule, variant: str, **budget) -> None:
    ref_schedule, ref_moves, ref_passes, ref_optimum = reference_hill_climb(
        initial, variant, **budget
    )
    result = hill_climb(initial, variant=variant, **budget)
    assert np.array_equal(result.schedule.proc, ref_schedule.proc)
    assert np.array_equal(result.schedule.step, ref_schedule.step)
    assert result.moves_applied == ref_moves
    assert result.passes == ref_passes
    assert result.reached_local_optimum == ref_optimum


@st.composite
def random_dags(draw, max_nodes: int = 40):
    """Random DAG with edges oriented along the node order."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        num_parents = draw(st.integers(min_value=0, max_value=min(3, v)))
        parents = draw(
            st.lists(st.integers(min_value=0, max_value=v - 1),
                     min_size=num_parents, max_size=num_parents, unique=True)
        )
        edges.extend((u, v) for u in parents)
    work = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    comm = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    memory = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    return ComputationalDAG(n, edges, work, comm, memory=memory, name="hypothesis")


@st.composite
def machines(draw):
    """Uniform or NUMA machine, optionally with per-processor memory bounds."""
    P = draw(st.sampled_from([1, 2, 3, 4]))
    g = draw(st.sampled_from([0.0, 1.0, 3.0]))
    latency = draw(st.sampled_from([0.0, 2.0, 5.0]))
    if P in (2, 4) and draw(st.booleans()):
        machine = BspMachine.hierarchical(
            P=P, delta=draw(st.sampled_from([2.0, 3.0])), g=g, l=latency
        )
    else:
        machine = BspMachine(P=P, g=g, l=latency)
    return machine, draw(st.sampled_from([None, 1.0, 1.3]))


def _initial(dag: ComputationalDAG, machine: BspMachine, bound_scale) -> BspSchedule:
    """Level round-robin start; a memory bound (if any) is set just above its
    peak per-processor usage, so the start is feasible but the bound binds."""
    initial = LevelRoundRobinScheduler().schedule(dag, machine)
    if bound_scale is None:
        return initial
    bound = float(initial.memory_usage().max()) * bound_scale
    bounded = machine.with_memory_bound(bound)
    return BspSchedule(dag, bounded, initial.proc, initial.step)


class TestNaiveScanOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        dag=random_dags(),
        machine=machines(),
        variant=st.sampled_from(["first", "best"]),
        max_moves=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
        max_passes=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    def test_random_instances(self, dag, machine, variant, max_moves, max_passes):
        machine, bound_scale = machine
        initial = _initial(dag, machine, bound_scale)
        _assert_same_search(initial, variant, max_moves=max_moves, max_passes=max_passes)

    @pytest.mark.parametrize("variant", ["first", "best"])
    @pytest.mark.parametrize(
        "machine",
        [
            BspMachine(P=4, g=3, l=5),
            BspMachine.hierarchical(P=8, delta=3, g=1, l=5),
        ],
        ids=["uniform", "numa"],
    )
    @pytest.mark.parametrize("bound_scale", [None, 1.0], ids=["unbounded", "bounded"])
    def test_fine_grained_dags(self, variant, machine, bound_scale):
        """Instances of 129-162 nodes, where one pass spans many probe batches."""
        for dag in (spmv_dag(14, q=0.3, seed=3), exp_dag(10, k=2, q=0.3, seed=5)):
            initial = _initial(dag, machine, bound_scale)
            _assert_same_search(initial, variant)
            _assert_same_search(initial, variant, max_moves=25)
