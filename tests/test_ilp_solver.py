"""Tests for the MILP solver (HiGHS) and its branch-and-bound test oracle."""

import numpy as np
import pytest

from ilp_bnb import solve_branch_and_bound
from repro.graphs.dag import ComputationalDAG
from repro.ilp import commsched
from repro.ilp.formulation import build_bsp_ilp
from repro.ilp.model import IlpModel
from repro.ilp.solver import SolverStatus, solve
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule


def knapsack_model():
    """max 5x + 4y + 3z s.t. 2x + 3y + z <= 5 over binaries -> optimum 9 (x=y=1)."""
    m = IlpModel("knapsack")
    x = m.add_binary("x")
    y = m.add_binary("y")
    z = m.add_binary("z")
    m.add_le({x: 2.0, y: 3.0, z: 1.0}, 5.0)
    # Minimization form: negate the profits.
    m.set_objective({x: -5.0, y: -4.0, z: -3.0})
    return m, (x, y, z)


def infeasible_model():
    m = IlpModel("infeasible")
    x = m.add_binary("x")
    m.add_ge({x: 1.0}, 2.0)
    return m


def fractional_lp_model():
    """A model whose LP relaxation is fractional, forcing actual branching."""
    m = IlpModel("frac")
    x = m.add_variable("x", 0, 10, integer=True)
    y = m.add_variable("y", 0, 10, integer=True)
    m.add_le({x: 2.0, y: 2.0}, 7.0)
    m.set_objective({x: -1.0, y: -1.0})
    return m


class TestHighsBackend:
    def test_knapsack_optimum(self):
        model, (x, y, z) = knapsack_model()
        result = solve(model)
        assert result.status == SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(-9.0)
        # The selected items must satisfy the capacity and reach profit 9.
        profit = 5 * result.value(x) + 4 * result.value(y) + 3 * result.value(z)
        weight = 2 * result.value(x) + 3 * result.value(y) + 1 * result.value(z)
        assert profit == pytest.approx(9.0)
        assert weight <= 5.0 + 1e-9

    def test_infeasible_detected(self):
        result = solve(infeasible_model())
        assert result.status == SolverStatus.INFEASIBLE
        assert not result.has_solution
        with pytest.raises(ValueError):
            result.value(0)

    def test_objective_constant_included(self):
        model, _ = knapsack_model()
        model.objective_constant = 100.0
        result = solve(model)
        assert result.objective == pytest.approx(91.0)


class TestBranchAndBoundBackend:
    def test_matches_highs_on_knapsack(self):
        model, _ = knapsack_model()
        bnb = solve_branch_and_bound(model)
        highs = solve(model)
        assert bnb.status in (SolverStatus.OPTIMAL, SolverStatus.FEASIBLE)
        assert bnb.objective == pytest.approx(highs.objective)

    def test_branches_on_fractional_relaxation(self):
        result = solve_branch_and_bound(fractional_lp_model())
        assert result.has_solution
        # Integer optimum: x + y = 3 (e.g. 3.5 rounded down).
        assert result.objective == pytest.approx(-3.0)

    def test_infeasible(self):
        result = solve_branch_and_bound(infeasible_model())
        assert result.status == SolverStatus.INFEASIBLE

    def test_respects_node_limit(self):
        result = solve_branch_and_bound(fractional_lp_model(), max_nodes=0)
        assert result.status in (SolverStatus.NO_SOLUTION, SolverStatus.FEASIBLE, SolverStatus.OPTIMAL)


class TestOracleAgreesOnFormulations:
    """HiGHS and branch and bound reach the same optimum on the BSP models."""

    @staticmethod
    def assert_solvers_agree(model):
        highs = solve(model)
        oracle = solve_branch_and_bound(model)
        assert highs.status == SolverStatus.OPTIMAL
        assert oracle.status == SolverStatus.OPTIMAL
        assert oracle.objective == pytest.approx(highs.objective)

    @pytest.mark.parametrize(
        "dag_name, num_supersteps", [("chain", 2), ("independent", 1), ("diamond", 2)]
    )
    def test_full_model_uniform(self, dag_name, num_supersteps, diamond_dag):
        dag = {
            "chain": ComputationalDAG(4, [(0, 1), (1, 2), (2, 3)]),
            "independent": ComputationalDAG(4, []),
            "diamond": diamond_dag,
        }[dag_name]
        machine = BspMachine(P=2, g=1, l=5)
        form = build_bsp_ilp(dag, machine, s_first=0, s_last=num_supersteps - 1)
        self.assert_solvers_agree(form.model)

    def test_full_model_numa(self, diamond_dag):
        machine = BspMachine.hierarchical(P=4, delta=2, g=1, l=5)
        form = build_bsp_ilp(diamond_dag, machine, s_first=0, s_last=1)
        self.assert_solvers_agree(form.model)

    def test_comm_schedule_model(self, monkeypatch):
        # The instance of test_ilp_formulations.py::test_spreads_bottleneck_transfers.
        dag = ComputationalDAG(
            5, [(0, 3), (1, 3), (2, 4)], work=[1, 1, 1, 1, 1], comm=[4, 4, 5, 1, 1]
        )
        machine = BspMachine(P=3, g=2, l=1)
        sched = BspSchedule(
            dag, machine, np.array([0, 1, 0, 2, 1]), np.array([0, 0, 0, 2, 1])
        )
        models = []

        def capture(model, time_limit=None):
            models.append(model)
            return solve(model, time_limit=time_limit)

        monkeypatch.setattr(commsched, "solve", capture)
        assert commsched.solve_comm_schedule_ilp(sched) is not None
        assert len(models) == 1
        self.assert_solvers_agree(models[0])
