"""Tests for the simulated annealing local search extension."""

import pytest

from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.localsearch.annealing import simulated_annealing
from repro.localsearch.hill_climbing import hill_climb
from repro.model.schedule import BspSchedule


class TestSimulatedAnnealing:
    def test_never_worse_than_start(self, all_test_dags, machine4):
        for dag in all_test_dags:
            initial = LevelRoundRobinScheduler().schedule(dag, machine4)
            result = simulated_annealing(initial, steps=300, seed=1)
            assert result.final_cost <= initial.cost() + 1e-9
            assert result.schedule.is_valid()

    def test_improves_bad_schedule(self, machine4):
        import numpy as np

        dag = ComputationalDAG(8, [], work=[4] * 8)
        bad = BspSchedule(dag, machine4, np.zeros(8, int), np.arange(8))
        result = simulated_annealing(bad, steps=1500, seed=0)
        assert result.final_cost < bad.cost()
        assert result.moves_accepted > 0

    def test_deterministic_with_seed(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        a = simulated_annealing(initial, steps=400, seed=7)
        b = simulated_annealing(initial, steps=400, seed=7)
        assert a.final_cost == pytest.approx(b.final_cost)

    def test_escapes_hill_climbing_plateau(self, machine4):
        """The chain-compaction plateau that stops HC (see the heuristics
        tests) can be crossed by annealing given enough steps."""
        import numpy as np

        dag = ComputationalDAG(5, [(i, i + 1) for i in range(4)])
        spread = BspSchedule(dag, machine4, np.zeros(5, int), np.arange(5))
        hc_cost = hill_climb(spread).final_cost
        sa_cost = simulated_annealing(spread, steps=4000, seed=3).final_cost
        assert sa_cost <= hc_cost + 1e-9

    def test_parameter_validation(self, diamond_dag, machine2):
        initial = BspSchedule.trivial(diamond_dag, machine2)
        with pytest.raises(ValueError):
            simulated_annealing(initial, cooling=0.0)
        with pytest.raises(ValueError):
            simulated_annealing(initial, steps=-1)

    def test_zero_steps_is_identity(self, diamond_dag, machine2):
        initial = BspSchedule.trivial(diamond_dag, machine2)
        result = simulated_annealing(initial, steps=0)
        assert result.final_cost == pytest.approx(initial.cost())
        assert result.moves_evaluated == 0

    def test_improver_wrapper(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        improved = simulated_annealing(initial, steps=300, seed=2).schedule
        assert improved.is_valid()
        assert improved.cost() <= initial.cost() + 1e-9

    def test_empty_dag(self, machine2):
        dag = ComputationalDAG(0, [])
        result = simulated_annealing(BspSchedule.trivial(dag, machine2), steps=10)
        assert result.final_cost == 0.0
