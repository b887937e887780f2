"""Unit tests for the baseline schedulers (Cilk, BL-EST, ETF, HDagg, trivial)."""

import numpy as np
import pytest

from oracles import processor_overlaps
from repro.baselines.cilk import CilkScheduler, simulate_work_stealing
from repro.baselines.hdagg import HDaggScheduler
from repro.baselines.list_schedulers import BlEstScheduler, EtfScheduler, list_schedule
from repro.baselines.trivial import LevelRoundRobinScheduler, TrivialScheduler
from repro.graphs.dag import ComputationalDAG
from repro.model.machine import BspMachine

ALL_BASELINES = [
    CilkScheduler(seed=0),
    BlEstScheduler(),
    EtfScheduler(),
    HDaggScheduler(),
    TrivialScheduler(),
    LevelRoundRobinScheduler(),
]


class TestAllBaselinesValidity:
    @pytest.mark.parametrize("scheduler", ALL_BASELINES, ids=lambda s: s.name)
    def test_valid_on_battery(self, scheduler, all_test_dags, machine4):
        for dag in all_test_dags:
            sched = scheduler.schedule_checked(dag, machine4)
            assert sched.dag is dag
            assert len(sched.proc) == dag.n

    @pytest.mark.parametrize("scheduler", ALL_BASELINES, ids=lambda s: s.name)
    def test_valid_with_numa_machine(self, scheduler, layered_dag, numa_machine):
        sched = scheduler.schedule_checked(layered_dag, numa_machine)
        assert sched.is_valid()

    @pytest.mark.parametrize("scheduler", ALL_BASELINES, ids=lambda s: s.name)
    def test_single_processor_machine(self, scheduler, diamond_dag):
        machine = BspMachine(P=1, g=2, l=3)
        sched = scheduler.schedule_checked(diamond_dag, machine)
        assert sched.cost() >= diamond_dag.total_work()

    @pytest.mark.parametrize("scheduler", ALL_BASELINES, ids=lambda s: s.name)
    def test_empty_dag(self, scheduler, machine2):
        dag = ComputationalDAG(0, [])
        sched = scheduler.schedule(dag, machine2)
        assert sched.is_valid()


class TestCilk:
    def test_deterministic_with_seed(self, layered_dag, machine4):
        a = CilkScheduler(seed=42).schedule(layered_dag, machine4)
        b = CilkScheduler(seed=42).schedule(layered_dag, machine4)
        assert np.array_equal(a.proc, b.proc) and np.array_equal(a.step, b.step)

    def test_no_idle_processor_while_work_exists(self, fork_join_dag):
        """With 2 processors and 6 independent middle nodes, stealing must
        spread the work (makespan well below the sequential one)."""
        machine = BspMachine(P=2, g=1, l=1)
        classical = simulate_work_stealing(fork_join_dag, machine, seed=1)
        assert classical.makespan < fork_join_dag.total_work()
        assert not processor_overlaps(classical)

    def test_respects_precedence_in_time(self, layered_dag, machine4):
        classical = simulate_work_stealing(layered_dag, machine4, seed=0)
        finish = classical.finish
        for (u, v) in layered_dag.edges:
            assert classical.start[v] >= finish[u] - 1e-9

    def test_all_nodes_scheduled_exactly_once(self, spmv_small, machine4):
        classical = simulate_work_stealing(spmv_small, machine4, seed=3)
        assert len(classical.start) == spmv_small.n
        assert not processor_overlaps(classical)


class TestListSchedulers:
    def test_rejects_unknown_policy(self, diamond_dag, machine2):
        with pytest.raises(ValueError):
            list_schedule(diamond_dag, machine2, policy="nope")

    def test_etf_respects_communication_delay(self):
        """With huge communication cost ETF keeps a chain on one processor."""
        dag = ComputationalDAG(4, [(0, 1), (1, 2), (2, 3)], work=[1, 1, 1, 1], comm=[100, 100, 100, 100])
        machine = BspMachine(P=4, g=10, l=0)
        classical = list_schedule(dag, machine, policy="etf")
        assert len(set(classical.proc.tolist())) == 1

    def test_blest_prioritizes_critical_path(self):
        # Node 1 has a much longer outgoing path than node 2, so BL-EST
        # schedules it first even though both are ready.
        dag = ComputationalDAG(
            5, [(0, 1), (0, 2), (1, 3), (3, 4)], work=[1, 1, 1, 5, 5], comm=[1, 1, 1, 1, 1]
        )
        machine = BspMachine(P=1, g=1, l=0)
        classical = list_schedule(dag, machine, policy="bl-est")
        assert classical.start[1] < classical.start[2]

    def test_parallel_speedup_on_independent_work(self, machine4):
        dag = ComputationalDAG(8, [], work=[3] * 8)
        for policy in ("bl-est", "etf"):
            classical = list_schedule(dag, machine4, policy=policy)
            assert classical.makespan == pytest.approx(6.0)

    def test_numa_machine_uses_average_coefficient(self, numa_machine):
        """The baselines run (and stay valid) on NUMA machines even though
        they only use the average coefficient internally."""
        dag = ComputationalDAG(6, [(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)], comm=[2] * 6)
        for scheduler in (BlEstScheduler(), EtfScheduler()):
            sched = scheduler.schedule_checked(dag, numa_machine)
            assert sched.cost() > 0


class TestHDagg:
    def test_produces_few_supersteps_on_wide_dag(self, machine4):
        # 3 levels of 8 independent nodes each: HDagg should not need more
        # supersteps than levels.
        edges = []
        for layer in range(1, 3):
            for i in range(8):
                edges.append(((layer - 1) * 8 + i, layer * 8 + i))
        dag = ComputationalDAG(24, edges)
        sched = HDaggScheduler().schedule_checked(dag, machine4)
        assert sched.num_supersteps <= 3

    def test_balances_work_within_superstep(self, machine4):
        dag = ComputationalDAG(8, [], work=[2] * 8)
        sched = HDaggScheduler().schedule_checked(dag, machine4)
        breakdown = sched.cost_breakdown()
        # Perfectly balanceable: the work cost must be close to 4 (= 16 / 4).
        assert breakdown.work_cost <= 8

    def test_aggregates_thin_wavefronts(self, chain_dag, machine4):
        sched = HDaggScheduler(aggregation_factor=10).schedule_checked(chain_dag, machine4)
        assert sched.num_supersteps == 1  # the whole chain fits one superstep

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HDaggScheduler(aggregation_factor=0)
        with pytest.raises(ValueError):
            HDaggScheduler(balance_slack=0.5)

    def test_beats_cilk_when_communication_matters(self, exp_small):
        """The paper's premise: HDagg (communication-aware wavefronts) beats
        Cilk under the BSP cost once g is non-trivial."""
        machine = BspMachine(P=4, g=5, l=5)
        cilk_cost = CilkScheduler(seed=0).schedule(exp_small, machine).cost()
        hdagg_cost = HDaggScheduler().schedule(exp_small, machine).cost()
        assert hdagg_cost < cilk_cost


class TestTrivialSchedulers:
    def test_trivial_cost(self, diamond_dag, machine4):
        sched = TrivialScheduler().schedule(diamond_dag, machine4)
        assert sched.cost() == diamond_dag.total_work() + machine4.l

    def test_level_round_robin_uses_all_processors(self, machine4):
        dag = ComputationalDAG(8, [], work=[1] * 8)
        sched = LevelRoundRobinScheduler().schedule_checked(dag, machine4)
        assert set(sched.proc.tolist()) == {0, 1, 2, 3}
