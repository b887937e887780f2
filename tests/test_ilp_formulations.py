"""Tests for the BSP ILP formulations: full, window (partial), commsched, init."""

import numpy as np
import pytest

from repro.baselines.hdagg import HDaggScheduler
from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.coarse import coarse_pagerank
from repro.graphs.dag import ComputationalDAG
from repro.heuristics.bspg import BspGreedyScheduler
from repro.ilp.commsched import solve_comm_schedule_ilp
from repro.ilp.formulation import build_bsp_ilp, estimate_variable_count
from repro.ilp.full import IlpFullScheduler, solve_full_ilp
from repro.ilp.init import IlpInitScheduler, topological_batches
from repro.ilp.partial import PartialIlpImprover, superstep_windows
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule


class TestFormulationBuilder:
    def test_variable_count_estimate(self):
        assert estimate_variable_count(10, 3, 4) == 10 * 3 * 16

    def test_full_formulation_size(self, diamond_dag, machine2):
        form = build_bsp_ilp(diamond_dag, machine2, s_first=0, s_last=2)
        # comp + pres: 2 * n * P * S; comm: n * P * (P-1) * S; plus aux vars.
        assert form.model.num_variables >= 2 * 4 * 2 * 3 + 4 * 2 * 1 * 3
        assert form.model.num_constraints > 0

    def test_requires_base_assignment_for_subset(self, diamond_dag, machine2):
        with pytest.raises(ValueError):
            build_bsp_ilp(diamond_dag, machine2, free_nodes=[0, 1], s_first=0, s_last=1)

    def test_empty_window_rejected(self, diamond_dag, machine2):
        with pytest.raises(ValueError):
            build_bsp_ilp(diamond_dag, machine2, s_first=3, s_last=2)

    def test_extraction_requires_solution(self, diamond_dag, machine2):
        from repro.ilp.solver import SolverResult, SolverStatus

        form = build_bsp_ilp(diamond_dag, machine2, s_first=0, s_last=1)
        with pytest.raises(ValueError):
            form.extract_assignment(SolverResult(SolverStatus.INFEASIBLE, None, None))


class TestFullIlp:
    def test_chain_is_kept_sequential(self, machine2):
        """With communication cost, the optimal schedule of a chain is the
        trivial sequential one: total work + one latency."""
        dag = ComputationalDAG(4, [(0, 1), (1, 2), (2, 3)], work=[2, 2, 2, 2], comm=[5, 5, 5, 5])
        sched = solve_full_ilp(dag, machine2, max_supersteps=2, time_limit=20)
        assert sched is not None and sched.is_valid()
        assert sched.cost() == pytest.approx(8 + machine2.l)

    def test_independent_nodes_are_parallelized(self, machine2):
        dag = ComputationalDAG(4, [], work=[3, 3, 3, 3], comm=[1, 1, 1, 1])
        sched = solve_full_ilp(dag, machine2, max_supersteps=1, time_limit=20)
        assert sched is not None and sched.is_valid()
        # Two processors, perfectly split: work cost 6 plus one latency.
        assert sched.cost() == pytest.approx(6 + machine2.l)

    def test_not_worse_than_heuristic_on_tiny_instance(self, machine2):
        dag = coarse_pagerank(2)
        heuristic = BspGreedyScheduler().schedule(dag, machine2)
        sched = solve_full_ilp(dag, machine2, heuristic.num_supersteps, time_limit=20)
        assert sched is not None and sched.is_valid()
        assert sched.cost() <= heuristic.cost() + 1e-9

    def test_scheduler_wrapper_falls_back_when_too_large(self, spmv_small, machine4):
        scheduler = IlpFullScheduler(max_variables=10, time_limit=5)
        sched = scheduler.schedule(spmv_small, machine4)
        assert sched.is_valid()  # falls back to the initializer's schedule

    def test_scheduler_wrapper_applicability(self, diamond_dag, machine2):
        scheduler = IlpFullScheduler(max_variables=10_000)
        assert scheduler.applicable(diamond_dag, machine2, 3)
        assert not scheduler.applicable(diamond_dag, machine2, 10_000)


class TestCommScheduleIlp:
    def test_no_transfers_case(self, chain_dag, machine2):
        sched = BspSchedule.trivial(chain_dag, machine2)
        improved = solve_comm_schedule_ilp(sched, time_limit=5)
        assert improved is not None
        assert improved.cost() == pytest.approx(sched.cost())

    def test_matches_or_beats_lazy_schedule(self, all_test_dags, machine4):
        for dag in all_test_dags:
            sched = HDaggScheduler().schedule(dag, machine4)
            improved = solve_comm_schedule_ilp(sched, time_limit=10)
            assert improved is not None
            assert improved.is_valid()
            assert improved.cost() <= sched.cost() + 1e-9
            assert np.array_equal(improved.proc, sched.proc)

    def test_spreads_bottleneck_transfers(self):
        # Same instance as the HCcs test: the lazy schedule pays h-relations
        # 5 + 8 = 13; the optimal communication schedule pays 5 + 4 = 9 by
        # hiding one transfer under the phase-0 bottleneck.
        dag = ComputationalDAG(
            5, [(0, 3), (1, 3), (2, 4)], work=[1, 1, 1, 1, 1], comm=[4, 4, 5, 1, 1]
        )
        machine = BspMachine(P=3, g=2, l=1)
        sched = BspSchedule(
            dag, machine, np.array([0, 1, 0, 2, 1]), np.array([0, 0, 0, 2, 1])
        )
        improved = solve_comm_schedule_ilp(sched, time_limit=10)
        assert improved is not None and improved.is_valid()
        assert float(improved.cost_breakdown().comm_per_step.sum()) == pytest.approx(9.0)

    def test_improver_never_worse(self, exp_small, numa_machine):
        sched = HDaggScheduler().schedule(exp_small, numa_machine)
        improved = solve_comm_schedule_ilp(sched, time_limit=10)
        assert improved is not None and improved.is_valid()
        assert improved.cost() <= sched.cost() + 1e-9


class TestPartialIlp:
    def test_window_split_covers_all_supersteps(self, spmv_small, machine4):
        sched = LevelRoundRobinScheduler().schedule(spmv_small, machine4)
        windows = superstep_windows(sched, machine4.P, max_variables=2000)
        covered = sorted(s for (a, b) in windows for s in range(a, b + 1))
        assert covered == list(range(sched.num_supersteps))

    def test_windows_respect_size_limit_when_possible(self, spmv_small, machine4):
        sched = LevelRoundRobinScheduler().schedule(spmv_small, machine4)
        windows = superstep_windows(sched, machine4.P, max_variables=2000)
        nodes_per_step = np.bincount(sched.step.astype(int), minlength=sched.num_supersteps)
        for (a, b) in windows:
            if b > a:  # multi-superstep windows must obey the estimate
                nodes = int(nodes_per_step[a : b + 1].sum())
                assert estimate_variable_count(nodes, b - a + 1, machine4.P) <= 2000

    def test_improver_never_worse_and_valid(self, coarse_cg_small, machine2):
        initial = LevelRoundRobinScheduler().schedule(coarse_cg_small, machine2)
        improver = PartialIlpImprover(max_variables=1200, time_limit_per_window=5)
        improved = improver.improve(initial)
        assert improved.is_valid()
        assert improved.cost() <= initial.cost() + 1e-9

    def test_improves_a_poor_initial_schedule(self, machine2):
        # Independent heavy nodes spread across many supersteps: the window
        # ILP should pack them into fewer supersteps and balance the work.
        dag = ComputationalDAG(6, [], work=[4] * 6, comm=[1] * 6)
        bad = BspSchedule(dag, machine2, np.zeros(6, int), np.arange(6))
        improver = PartialIlpImprover(max_variables=3000, time_limit_per_window=10)
        improved = improver.improve(bad)
        assert improved.is_valid()
        assert improved.cost() < bad.cost()


class TestIlpInit:
    def test_batches_cover_all_nodes_in_topological_order(self, spmv_small, machine4):
        batches = topological_batches(spmv_small, machine4.P, max_variables=800)
        flat = [v for batch in batches for v in batch]
        assert sorted(flat) == list(range(spmv_small.n))
        position = {v: i for i, v in enumerate(flat)}
        for (u, v) in spmv_small.edges:
            assert position[u] < position[v]

    def test_schedule_is_valid(self, coarse_cg_small, machine2):
        scheduler = IlpInitScheduler(max_variables=600, time_limit_per_batch=5)
        sched = scheduler.schedule_checked(coarse_cg_small, machine2)
        assert sched.num_supersteps >= 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            IlpInitScheduler(supersteps_per_batch=0)

    def test_empty_dag(self, machine2):
        dag = ComputationalDAG(0, [])
        sched = IlpInitScheduler().schedule(dag, machine2)
        assert sched.is_valid()
