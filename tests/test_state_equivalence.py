"""Property-based equivalence of the incremental local-search state.

The array-native :class:`~repro.localsearch.state.LocalSearchState` maintains
the schedule cost incrementally (dense min-step/count tables plus superstep
matrices).  These tests drive it with random valid move sequences on random
DAGs and assert, after *every* move and after reverts, that the running
``total_cost`` equals a fresh, from-scratch :func:`repro.model.cost.evaluate`
of the materialized schedule — i.e. the incremental kernel and the reference
cost function can never drift apart.  Machines go up to P=16, where the
probe's rows-last blocks have more processors than its batches have rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.localsearch.state import LocalSearchState
from repro.model.cost import evaluate
from repro.model.machine import BspMachine


@st.composite
def random_dags(draw, max_nodes: int = 16):
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
    comm = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    return ComputationalDAG(n, edges, work, comm, name="hypothesis")


@st.composite
def machines(draw):
    P = draw(st.sampled_from([1, 2, 4, 8, 16]))
    g = draw(st.sampled_from([0.0, 1.0, 3.0]))
    latency = draw(st.sampled_from([0.0, 5.0]))
    if draw(st.booleans()) and P >= 2:
        return BspMachine.hierarchical(P=P, delta=draw(st.sampled_from([2.0, 3.0])),
                                       g=g, l=latency)
    return BspMachine(P=P, g=g, l=latency)


def _exact_cost(state: LocalSearchState) -> float:
    """From-scratch evaluation of the state's current layout."""
    return float(evaluate(state.current_schedule()).total)


class TestStateMatchesEvaluate:
    @settings(max_examples=40, deadline=None)
    @given(dag=random_dags(), machine=machines(), data=st.data())
    def test_random_move_sequences(self, dag, machine, data):
        """total_cost == evaluate(...) after every applied move."""
        schedule = LevelRoundRobinScheduler().schedule(dag, machine)
        state = LocalSearchState(schedule)
        assert state.total_cost == pytest.approx(_exact_cost(state))

        num_moves = data.draw(st.integers(min_value=1, max_value=25), label="num_moves")
        for _ in range(num_moves):
            v = data.draw(st.integers(min_value=0, max_value=dag.n - 1), label="node")
            moves = state.candidate_moves(v)
            if not moves:
                continue
            choice = data.draw(st.integers(min_value=0, max_value=len(moves) - 1),
                               label="move")
            _, p, s = moves[choice]
            # The batched probe must predict exactly the cost the move produces.
            predicted = state.total_cost + float(state.move_deltas(v, moves)[choice])
            applied = state.apply_move(v, p, s)
            assert applied == pytest.approx(predicted)
            assert state.total_cost == pytest.approx(_exact_cost(state))

    @settings(max_examples=25, deadline=None)
    @given(dag=random_dags(), machine=machines(), data=st.data())
    def test_reverts_restore_cost(self, dag, machine, data):
        """Applying a move and its inverse restores the exact cost."""
        schedule = LevelRoundRobinScheduler().schedule(dag, machine)
        state = LocalSearchState(schedule)
        for _ in range(data.draw(st.integers(min_value=1, max_value=12), label="rounds")):
            v = data.draw(st.integers(min_value=0, max_value=dag.n - 1), label="node")
            moves = state.candidate_moves(v)
            if not moves:
                continue
            before = state.total_cost
            old_p, old_s = int(state.proc[v]), int(state.step[v])
            _, p, s = moves[data.draw(st.integers(min_value=0, max_value=len(moves) - 1),
                                      label="move")]
            state.apply_move(v, p, s)
            state.apply_move(v, old_p, old_s)
            assert state.total_cost == pytest.approx(before)
            assert state.total_cost == pytest.approx(_exact_cost(state))

    def test_invalid_probe_does_not_corrupt_state(self):
        """A precondition-violating probe raises but leaves the state intact."""
        dag = ComputationalDAG(2, [(0, 1)], name="pair")
        machine = BspMachine(P=2, g=1, l=1)
        from repro.model.schedule import BspSchedule

        state = LocalSearchState(
            BspSchedule(dag, machine, np.array([0, 1]), np.array([0, 1]))
        )
        before = state.total_cost
        succ_before = [row[:] for row in state.succ_min]
        # Moving node 1 to step 0 on processor 1 is invalid (its parent is on
        # the other processor); the probe must fail without side effects.
        with pytest.raises(Exception):
            state.move_deltas(1, [(1, 1, 0)])
        assert state.total_cost == before
        assert int(state.step[1]) == 1
        assert state.succ_min == succ_before
        assert state.total_cost == pytest.approx(_exact_cost(state))

    @settings(max_examples=25, deadline=None)
    @given(dag=random_dags(), machine=machines())
    def test_probing_leaves_state_untouched(self, dag, machine):
        """move_deltas must not change positions, tables or cost."""
        schedule = LevelRoundRobinScheduler().schedule(dag, machine)
        state = LocalSearchState(schedule)
        proc_before = state.proc.copy()
        step_before = state.step.copy()
        cost_before = state.total_cost
        succ_min_before = [row[:] for row in state.succ_min]
        for v in range(dag.n):
            moves = state.candidate_moves(v)
            if moves:
                state.move_deltas(v, moves)
        assert np.array_equal(state.proc, proc_before)
        assert np.array_equal(state.step, step_before)
        assert state.total_cost == cost_before
        assert state.succ_min == succ_min_before

    @settings(max_examples=30, deadline=None)
    @given(dag=random_dags(), machine=machines(), data=st.data())
    def test_batched_probe_equals_single_probes(self, dag, machine, data):
        """Each item of a move_deltas_many batch equals its own one-item probe.

        A probe's result must not depend on which nodes share its batch:
        the deltas are bitwise equal and the rows read are the same.
        """
        schedule = LevelRoundRobinScheduler().schedule(dag, machine)
        state = LocalSearchState(schedule)
        # Leave the start layout first, so that batches see grown matrices
        # and moved successor tables too.
        for _ in range(data.draw(st.integers(min_value=0, max_value=8), label="warm")):
            v = data.draw(st.integers(min_value=0, max_value=dag.n - 1), label="node")
            moves = state.candidate_moves(v)
            if moves:
                _, p, s = moves[data.draw(
                    st.integers(min_value=0, max_value=len(moves) - 1), label="move")]
                state.apply_move(v, p, s)
        nodes = data.draw(
            st.lists(st.integers(min_value=0, max_value=dag.n - 1), min_size=2, max_size=8),
            label="batch",
        )
        items = [(v, state.candidate_moves(v)) for v in nodes]
        deltas, rows = state.move_deltas_many(items)
        assert len(deltas) == len(rows) == len(items)
        for (v, moves), got_deltas, got_rows in zip(items, deltas, rows):
            single_deltas, single_rows = state.move_deltas_many([(v, moves)])
            assert np.array_equal(got_deltas, state.move_deltas(v, moves))
            assert np.array_equal(got_deltas, single_deltas[0])
            assert np.array_equal(got_rows, single_rows[0])
