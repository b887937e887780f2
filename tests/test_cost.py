"""Unit tests for the BSP+NUMA cost function (hand-checked examples)."""

import numpy as np
import pytest

from repro.graphs.dag import ComputationalDAG
from repro.model.comm import CommSchedule
from repro.model.cost import evaluate, superstep_matrices
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule


def make_two_step_schedule():
    """Two processors, two supersteps, one value crossing processors.

    Superstep 0: node 0 (w=2) on p0, node 1 (w=3) on p1; node 0's output
    (c=2) is sent to p1 in phase 0.  Superstep 1: node 2 (w=4) on p1.
    """
    dag = ComputationalDAG(3, [(0, 2), (1, 2)], work=[2, 3, 4], comm=[2, 1, 1])
    machine = BspMachine(P=2, g=3, l=5)
    proc = np.array([0, 1, 1])
    step = np.array([0, 0, 1])
    return BspSchedule(dag, machine, proc, step)


class TestHandComputedCosts:
    def test_two_step_example(self):
        sched = make_two_step_schedule()
        breakdown = evaluate(sched)
        # Superstep 0: work max(2, 3) = 3; comm h-relation = 2 (send by p0 = recv by p1).
        # Superstep 1: work 4; no communication.
        assert breakdown.work_per_step.tolist() == [3.0, 4.0]
        assert breakdown.comm_per_step.tolist() == [2.0, 0.0]
        assert breakdown.work_cost == 7.0
        assert breakdown.comm_cost == 3 * 2.0
        assert breakdown.latency_cost == 2 * 5.0
        assert breakdown.total == 7.0 + 6.0 + 10.0
        assert sched.cost() == breakdown.total

    def test_trivial_schedule_cost_is_total_work_plus_latency(self, diamond_dag):
        machine = BspMachine(P=4, g=3, l=5)
        sched = BspSchedule.trivial(diamond_dag, machine)
        assert sched.cost() == diamond_dag.total_work() + 5.0

    def test_h_relation_takes_max_of_send_and_receive(self):
        # p0 sends two values (3 units in total) to p1 and p2 respectively;
        # the h-relation is dominated by p0's send volume.
        dag = ComputationalDAG(5, [(0, 3), (1, 4)], work=[1, 1, 1, 1, 1], comm=[2, 1, 1, 1, 1])
        machine = BspMachine(P=3, g=1, l=0)
        proc = np.array([0, 0, 1, 1, 2])
        step = np.array([0, 0, 0, 1, 1])
        sched = BspSchedule(dag, machine, proc, step)
        breakdown = evaluate(sched)
        # Phase 0: p0 sends c(0)=2 to p1 and c(1)=1 to p2 -> send(p0)=3,
        # recv(p1)=2, recv(p2)=1 -> h-relation 3.
        assert breakdown.comm_per_step[0] == 3.0

    def test_latency_counts_only_occurring_supersteps(self):
        dag = ComputationalDAG(2, [(0, 1)], work=[1, 1], comm=[1, 1])
        machine = BspMachine(P=2, g=1, l=10)
        # Node 1 placed far in the future: intermediate supersteps are empty
        # except the one containing the lazy communication.
        sched = BspSchedule(dag, machine, np.array([0, 1]), np.array([0, 5]))
        breakdown = evaluate(sched)
        # Occurring supersteps: 0 (work), 4 (communication), 5 (work) -> 3.
        assert breakdown.num_supersteps == 3
        assert breakdown.latency_cost == 30.0

    def test_zero_latency_machine(self):
        sched = make_two_step_schedule()
        sched.machine = BspMachine(P=2, g=3, l=0)
        assert evaluate(sched).latency_cost == 0.0


class TestNumaWeighting:
    def test_numa_coefficient_scales_communication(self):
        dag = ComputationalDAG(2, [(0, 1)], work=[1, 1], comm=[4, 1])
        numa_machine = BspMachine.hierarchical(P=8, delta=3, g=1, l=0)
        # Cheap pair (0 -> 1, lambda = 1).
        cheap = BspSchedule(dag, numa_machine, np.array([0, 1]), np.array([0, 1]))
        # Expensive pair (0 -> 4, lambda = 9).
        costly = BspSchedule(dag, numa_machine, np.array([0, 4]), np.array([0, 1]))
        assert evaluate(cheap).comm_cost == 4.0
        assert evaluate(costly).comm_cost == 36.0

    def test_uniform_equals_default_bsp(self):
        dag = ComputationalDAG(2, [(0, 1)], comm=[5, 1])
        uniform = BspMachine(P=4, g=2, l=0)
        sched = BspSchedule(dag, uniform, np.array([0, 3]), np.array([0, 1]))
        assert evaluate(sched).comm_cost == 2 * 5.0


class TestExplicitCommSchedules:
    def test_explicit_comm_changes_phase_load(self):
        dag = ComputationalDAG(3, [(0, 2), (1, 2)], work=[1, 1, 1], comm=[3, 3, 1])
        machine = BspMachine(P=3, g=1, l=0)
        proc = np.array([0, 1, 2])
        step = np.array([0, 0, 2])
        lazy = BspSchedule(dag, machine, proc, step)
        # Lazy: both values arrive in phase 1 -> recv(p2) = 6 in one phase.
        assert evaluate(lazy).comm_cost == 6.0
        # Spreading them over phases 0 and 1 halves the bottleneck.
        spread = CommSchedule({(0, 0, 2, 0), (1, 1, 2, 1)})
        explicit = BspSchedule(dag, machine, proc, step, spread)
        assert explicit.is_valid()
        assert evaluate(explicit).comm_cost == 6.0  # 3 + 3 over two phases
        assert max(evaluate(explicit).comm_per_step) == 3.0

    def test_self_send_entries_are_ignored(self):
        dag = ComputationalDAG(2, [(0, 1)], comm=[2, 1])
        machine = BspMachine(P=2, g=1, l=0)
        comm = CommSchedule({(0, 0, 0, 0), (0, 0, 1, 0)})
        sched = BspSchedule(dag, machine, np.array([0, 1]), np.array([0, 1]), comm)
        assert evaluate(sched).comm_cost == 2.0

    def test_residue_only_superstep_is_not_charged_latency(self):
        """A phase whose only traffic is below OCCUPANCY_TOL does not occur,
        for evaluate as for the local-search engine."""
        from repro.localsearch.state import LocalSearchState

        dag = ComputationalDAG(2, [(0, 1)], work=[1, 1], comm=[1, 0])
        machine = BspMachine(P=2, g=1, l=5, numa=[[0, 1e-13], [1e-13, 0]])
        comm = CommSchedule({(0, 0, 1, 1)})
        sched = BspSchedule(dag, machine, np.array([0, 1]), np.array([0, 2]), comm)
        assert sched.is_valid()
        assert evaluate(sched).num_supersteps == 2
        assert sched.cost() == LocalSearchState(sched).total_cost


class TestMatrices:
    def test_superstep_matrices_shapes(self):
        sched = make_two_step_schedule()
        work, send, recv = superstep_matrices(sched)
        assert work.shape == (2, 2)
        assert send.shape == (2, 2)
        assert work[0, 0] == 2.0 and work[0, 1] == 3.0 and work[1, 1] == 4.0
        assert send[0, 0] == 2.0 and recv[0, 1] == 2.0

    def test_breakdown_is_consistent(self, layered_dag, machine4):
        from repro.baselines.hdagg import HDaggScheduler

        sched = HDaggScheduler().schedule(layered_dag, machine4)
        b = sched.cost_breakdown()
        assert b.total == pytest.approx(b.work_cost + b.comm_cost + b.latency_cost)
        assert b.work_cost == pytest.approx(float(b.work_per_step.sum()))
        assert b.comm_cost == pytest.approx(machine4.g * float(b.comm_per_step.sum()))

    def test_empty_dag_costs_zero(self, machine2):
        dag = ComputationalDAG(0, [])
        assert evaluate(BspSchedule.trivial(dag, machine2)).total == 0.0
