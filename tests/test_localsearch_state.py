"""Tests for the incremental local-search state (cost maintenance, moves)."""

import numpy as np
import pytest

from repro.baselines.hdagg import HDaggScheduler
from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.localsearch.state import LocalSearchState
from repro.model.schedule import BspSchedule


def make_state(dag, machine, scheduler=None):
    scheduler = scheduler or LevelRoundRobinScheduler()
    return LocalSearchState(scheduler.schedule(dag, machine))


class TestInitialState:
    def test_initial_cost_matches_exact_evaluation(self, all_test_dags, machine4):
        for dag in all_test_dags:
            state = make_state(dag, machine4)
            assert state.total_cost == pytest.approx(state.recompute_cost())

    def test_initial_cost_matches_with_numa(self, layered_dag, numa_machine):
        state = make_state(layered_dag, numa_machine)
        assert state.total_cost == pytest.approx(state.recompute_cost())


class TestMoveValidity:
    def test_no_op_move_is_invalid(self, diamond_dag, machine4):
        state = make_state(diamond_dag, machine4)
        v = 0
        assert not state.is_move_valid(v, int(state.proc[v]), int(state.step[v]))

    def test_negative_superstep_invalid(self, diamond_dag, machine4):
        state = make_state(diamond_dag, machine4)
        assert not state.is_move_valid(0, 0, -1)

    def test_out_of_range_processor_invalid(self, diamond_dag, machine4):
        state = make_state(diamond_dag, machine4)
        assert not state.is_move_valid(0, machine4.P, 0)

    def test_cannot_move_before_cross_processor_parent(self, machine2):
        dag = ComputationalDAG(2, [(0, 1)])
        sched = BspSchedule(dag, machine2, np.array([0, 1]), np.array([0, 1]))
        state = LocalSearchState(sched)
        # Moving node 1 into superstep 0 on processor 1 would require the
        # value of 0 to arrive without any communication phase in between.
        assert not state.is_move_valid(1, 1, 0)
        # Moving it onto processor 0 in superstep 0 is fine (same processor).
        assert state.is_move_valid(1, 0, 0)

    def test_cannot_move_after_successor(self, machine2):
        dag = ComputationalDAG(2, [(0, 1)])
        sched = BspSchedule(dag, machine2, np.array([0, 0]), np.array([0, 0]))
        state = LocalSearchState(sched)
        assert not state.is_move_valid(0, 1, 1)  # child on other proc at step 0

    def test_candidate_moves_are_all_valid(self, layered_dag, machine4):
        state = make_state(layered_dag, machine4)
        for v in range(layered_dag.n):
            for (node, p, s) in state.candidate_moves(v):
                assert node == v
                assert state.is_move_valid(node, p, s)


class TestIncrementalCost:
    def test_apply_move_matches_exact_recomputation(self, layered_dag, machine4):
        state = make_state(layered_dag, machine4)
        rng = np.random.default_rng(1)
        applied = 0
        for _ in range(200):
            v = int(rng.integers(layered_dag.n))
            moves = state.candidate_moves(v)
            if not moves:
                continue
            _, p, s = moves[int(rng.integers(len(moves)))]
            state.apply_move(v, p, s)
            applied += 1
            assert state.total_cost == pytest.approx(state.recompute_cost()), (
                f"incremental cost diverged after move {applied}"
            )
        assert applied > 20

    def test_apply_move_matches_exact_recomputation_numa(self, spmv_small, numa_machine):
        state = make_state(spmv_small, numa_machine, HDaggScheduler())
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = int(rng.integers(spmv_small.n))
            moves = state.candidate_moves(v)
            if not moves:
                continue
            _, p, s = moves[int(rng.integers(len(moves)))]
            state.apply_move(v, p, s)
        assert state.total_cost == pytest.approx(state.recompute_cost())

    def test_apply_and_revert_restores_cost(self, fork_join_dag, machine4):
        state = make_state(fork_join_dag, machine4)
        before = state.total_cost
        for v in range(fork_join_dag.n):
            moves = state.candidate_moves(v)
            if not moves:
                continue
            _, p, s = moves[0]
            old_p, old_s = int(state.proc[v]), int(state.step[v])
            state.apply_move(v, p, s)
            state.apply_move(v, old_p, old_s)
            assert state.total_cost == pytest.approx(before)

    def test_evaluate_move_leaves_state_unchanged(self, diamond_dag, machine4):
        state = make_state(diamond_dag, machine4)
        snapshot_proc = state.proc.copy()
        snapshot_step = state.step.copy()
        before = state.total_cost
        for v in range(diamond_dag.n):
            for (_, p, s) in state.candidate_moves(v):
                state.evaluate_move(v, p, s)
        assert state.total_cost == pytest.approx(before)
        assert np.array_equal(state.proc, snapshot_proc)
        assert np.array_equal(state.step, snapshot_step)

    def test_move_into_new_superstep_grows_capacity(self, chain_dag, machine2):
        sched = BspSchedule(chain_dag, machine2, np.zeros(5, int), np.zeros(5, int))
        state = LocalSearchState(sched)
        last = 4  # the chain's sink
        target_step = state.S + 2  # beyond current capacity
        state.engine.ensure_capacity(target_step)
        assert state.S > target_step

    def test_to_schedule_is_valid_and_costs_match(self, layered_dag, machine4):
        state = make_state(layered_dag, machine4)
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = int(rng.integers(layered_dag.n))
            moves = state.candidate_moves(v)
            if moves:
                _, p, s = moves[int(rng.integers(len(moves)))]
                state.apply_move(v, p, s)
        uncompacted = state.current_schedule()
        assert uncompacted.is_valid()
        assert uncompacted.cost() == pytest.approx(state.total_cost)
        compacted = state.to_schedule()
        assert compacted.is_valid()
        # Removing empty supersteps can only help (latency term shrinks).
        assert compacted.cost() <= state.total_cost + 1e-9
