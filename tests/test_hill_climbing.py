"""Tests for the HC hill-climbing local search."""

import numpy as np
import pytest

from repro.baselines.cilk import CilkScheduler
from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.localsearch.hill_climbing import hill_climb
from repro.model.schedule import BspSchedule


class TestHillClimbBasics:
    def test_never_increases_cost(self, all_test_dags, machine4):
        for dag in all_test_dags:
            initial = LevelRoundRobinScheduler().schedule(dag, machine4)
            result = hill_climb(initial, max_passes=5)
            assert result.final_cost <= result.initial_cost + 1e-9
            assert result.schedule.is_valid()

    def test_improves_obviously_bad_schedule(self, machine4):
        """A round-robin schedule of independent heavy nodes over many
        supersteps is clearly improvable (latency + imbalance)."""
        dag = ComputationalDAG(8, [], work=[4] * 8)
        proc = np.zeros(8, dtype=int)
        step = np.arange(8)
        bad = BspSchedule(dag, machine4, proc, step)
        result = hill_climb(bad)
        assert result.final_cost < bad.cost()
        assert result.moves_applied > 0

    def test_reaches_local_optimum_flag(self, diamond_dag, machine2):
        initial = LevelRoundRobinScheduler().schedule(diamond_dag, machine2)
        result = hill_climb(initial)
        assert result.reached_local_optimum
        # Running HC again from the optimum applies no further move.
        again = hill_climb(result.schedule)
        assert again.moves_applied == 0

    def test_move_budget_is_respected(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, max_moves=3)
        assert result.moves_applied <= 3

    def test_invalid_variant_rejected(self, diamond_dag, machine2):
        initial = BspSchedule.trivial(diamond_dag, machine2)
        with pytest.raises(ValueError):
            hill_climb(initial, variant="steepest")

    def test_improvement_property(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, max_passes=5)
        assert 0.0 <= result.improvement < 1.0


class TestVariants:
    def test_best_variant_also_monotone(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, variant="best", max_passes=3)
        assert result.final_cost <= result.initial_cost + 1e-9
        assert result.schedule.is_valid()

    def test_first_and_best_reach_similar_quality(self, spmv_small, machine4):
        """The paper found neither variant clearly superior; both must land
        within a reasonable factor of each other on a small instance."""
        initial = CilkScheduler(seed=0).schedule(spmv_small, machine4)
        first = hill_climb(initial, variant="first", max_passes=20).final_cost
        best = hill_climb(initial, variant="best", max_passes=20).final_cost
        assert first <= 1.5 * best
        assert best <= 1.5 * first


class TestImproverWrapper:
    def test_improver_returns_valid_not_worse(self, exp_small, machine4):
        initial = CilkScheduler(seed=0).schedule(exp_small, machine4)
        improved = hill_climb(initial, max_passes=5).schedule
        assert improved.is_valid()
        assert improved.cost() <= initial.cost() + 1e-9

    def test_time_limit_zero_applies_no_moves(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, time_limit=0.0)
        assert result.moves_applied == 0
        assert result.final_cost == pytest.approx(initial.cost())

    def test_numa_hill_climbing(self, exp_small, numa_machine):
        initial = CilkScheduler(seed=0).schedule(exp_small, numa_machine)
        result = hill_climb(initial, max_passes=5)
        assert result.schedule.is_valid()
        assert result.final_cost <= result.initial_cost + 1e-9
