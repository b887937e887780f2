"""Tests for HCcs: hill climbing on the communication schedule."""

import numpy as np
import pytest

from repro.baselines.hdagg import HDaggScheduler
from repro.graphs.dag import ComputationalDAG
from repro.localsearch.comm_hill_climbing import CommScheduleState, comm_hill_climb
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule


def spread_example():
    """A communication schedule that the lazy rule handles badly.

    Values 0 (from p0) and 1 (from p1) are both needed by p2 in superstep 2;
    value 2 (from p0, volume 5) is needed by p1 in superstep 1, pinning an
    h-relation of 5 in phase 0.  The lazy schedule sends values 0 and 1 in
    phase 1 (h-relation 8 there, 13 in total); moving value 1's transfer into
    phase 0 hides it under the existing h-relation and drops the total to 9.
    """
    dag = ComputationalDAG(
        5,
        [(0, 3), (1, 3), (2, 4)],
        work=[1, 1, 1, 1, 1],
        comm=[4, 4, 5, 1, 1],
    )
    machine = BspMachine(P=3, g=2, l=1)
    proc = np.array([0, 1, 0, 2, 1])
    step = np.array([0, 0, 0, 2, 1])
    return BspSchedule(dag, machine, proc, step)


class TestCommState:
    def test_initial_cost_matches_lazy_schedule(self, layered_dag, machine4):
        sched = HDaggScheduler().schedule(layered_dag, machine4)
        state = CommScheduleState(sched)
        lazy_comm_sum = float(sched.cost_breakdown().comm_per_step.sum())
        assert state.total_comm_cost() == pytest.approx(lazy_comm_sum)

    def test_move_updates_cost_consistently(self):
        sched = spread_example()
        state = CommScheduleState(sched)
        (u, q) = state.transfers[0]
        lo, hi = state.window[(u, q)]
        if lo < hi:
            state.move(u, q, lo)
            rebuilt = sched.copy()
            rebuilt.comm = state.to_comm_schedule()
            assert rebuilt.is_valid()
            expected = float(rebuilt.cost_breakdown().comm_per_step.sum())
            assert state.total_comm_cost() == pytest.approx(expected)

    def test_windows_are_sound(self, spmv_small, machine4):
        sched = HDaggScheduler().schedule(spmv_small, machine4)
        state = CommScheduleState(sched)
        for (u, q), (lo, hi) in state.window.items():
            assert lo <= hi
            assert lo >= int(sched.step[u])


class TestCommHillClimb:
    def test_never_worse_and_valid(self, all_test_dags, machine4):
        for dag in all_test_dags:
            sched = HDaggScheduler().schedule(dag, machine4)
            result = comm_hill_climb(sched)
            assert result.final_cost <= result.initial_cost + 1e-9
            assert result.schedule.is_valid()
            assert result.schedule.comm is not None

    def test_spreads_conflicting_transfers(self):
        sched = spread_example()
        before = sched.cost()  # lazy: h-relations 5 + 8 = 13
        result = comm_hill_climb(sched)
        assert result.moves_applied >= 1
        assert result.final_cost < before
        # Optimal communication schedule: h-relations 5 + 4 = 9.
        assert float(result.schedule.cost_breakdown().comm_per_step.sum()) == pytest.approx(9.0)

    def test_assignment_is_untouched(self, exp_small, machine4):
        sched = HDaggScheduler().schedule(exp_small, machine4)
        result = comm_hill_climb(sched)
        assert np.array_equal(result.schedule.proc, sched.proc)
        assert np.array_equal(result.schedule.step, sched.step)

    def test_no_transfers_needed(self, chain_dag, machine4):
        sched = BspSchedule.trivial(chain_dag, machine4)
        result = comm_hill_climb(sched)
        assert result.final_cost == pytest.approx(sched.cost())
        assert len(result.schedule.comm) == 0

    def test_max_moves_budget(self, spmv_small, machine4):
        sched = HDaggScheduler().schedule(spmv_small, machine4)
        result = comm_hill_climb(sched, max_moves=2)
        assert result.moves_applied <= 2

    def test_improver_wrapper(self, exp_small, numa_machine):
        sched = HDaggScheduler().schedule(exp_small, numa_machine)
        improved = comm_hill_climb(sched).schedule
        assert improved.is_valid()
        assert improved.cost() <= sched.cost() + 1e-9

    def test_respects_explicit_starting_gamma(self):
        sched = spread_example().with_lazy_comm()
        result = comm_hill_climb(sched)
        assert result.schedule.is_valid()
        assert result.final_cost <= sched.cost() + 1e-9
