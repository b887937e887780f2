"""Unit tests for classical (time-based) schedules and BSP conversion."""

import numpy as np
import pytest

from oracles import processor_overlaps
from repro.graphs.dag import ComputationalDAG
from repro.model.classical import ClassicalSchedule, classical_to_bsp


class TestClassicalSchedule:
    def test_finish_and_makespan(self, diamond_dag, machine2):
        proc = np.array([0, 0, 1, 0])
        start = np.array([0.0, 2.0, 2.0, 5.0])
        sched = ClassicalSchedule(diamond_dag, machine2, proc, start)
        assert sched.finish[0] == 2.0
        assert sched.finish[3] == 7.0
        assert sched.makespan == 7.0

    def test_empty_dag_makespan(self, machine2):
        dag = ComputationalDAG(0, [])
        sched = ClassicalSchedule(dag, machine2, np.zeros(0, int), np.zeros(0))
        assert sched.makespan == 0.0

    def test_execution_order_breaks_ties_topologically(self, machine2):
        dag = ComputationalDAG(3, [(0, 1), (0, 2)])
        sched = ClassicalSchedule(dag, machine2, np.zeros(3, int), np.array([0.0, 1.0, 1.0]))
        order = sched.execution_order()
        assert order[0] == 0
        assert set(order[1:]) == {1, 2}

    def test_processor_exclusivity_check(self, machine2):
        dag = ComputationalDAG(2, [], work=[3, 3])
        overlapping = ClassicalSchedule(dag, machine2, np.array([0, 0]), np.array([0.0, 1.0]))
        assert processor_overlaps(overlapping)
        disjoint = ClassicalSchedule(dag, machine2, np.array([0, 0]), np.array([0.0, 3.0]))
        assert not processor_overlaps(disjoint)

    def test_wrong_length_rejected(self, diamond_dag, machine2):
        with pytest.raises(ValueError):
            ClassicalSchedule(diamond_dag, machine2, np.zeros(3, int), np.zeros(4))


class TestConversionToBsp:
    def test_single_processor_collapses_to_one_superstep(self, chain_dag, machine2):
        proc = np.zeros(5, dtype=int)
        start = np.arange(5, dtype=float)
        bsp = classical_to_bsp(ClassicalSchedule(chain_dag, machine2, proc, start))
        assert bsp.is_valid()
        assert bsp.num_supersteps == 1

    def test_cross_processor_dependency_inserts_barrier(self, machine2):
        dag = ComputationalDAG(2, [(0, 1)], work=[1, 1])
        classical = ClassicalSchedule(dag, machine2, np.array([0, 1]), np.array([0.0, 1.0]))
        bsp = classical_to_bsp(classical)
        assert bsp.is_valid()
        assert bsp.step[1] > bsp.step[0]

    def test_conversion_preserves_processor_assignment(self, diamond_dag, machine2):
        proc = np.array([0, 1, 0, 1])
        start = np.array([0.0, 2.0, 2.0, 5.0])
        bsp = classical_to_bsp(ClassicalSchedule(diamond_dag, machine2, proc, start))
        assert np.array_equal(bsp.proc, proc)
        assert bsp.is_valid()

    def test_conversion_of_parallel_independent_work(self, machine4):
        # Independent nodes on distinct processors need no barriers at all.
        dag = ComputationalDAG(4, [], work=[2, 2, 2, 2])
        classical = ClassicalSchedule(dag, machine4, np.arange(4), np.zeros(4))
        bsp = classical_to_bsp(classical)
        assert bsp.is_valid()
        assert bsp.num_supersteps == 1

    def test_conversion_always_valid_on_list_schedules(self, all_test_dags, machine4):
        from repro.baselines.list_schedulers import list_schedule

        for dag in all_test_dags:
            for policy in ("bl-est", "etf"):
                classical = list_schedule(dag, machine4, policy=policy)
                assert not processor_overlaps(classical)
                bsp = classical_to_bsp(classical)
                assert bsp.is_valid(), f"{policy} conversion invalid on {dag.name}"
