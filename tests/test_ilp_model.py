"""Tests for the MILP modelling layer."""

import numpy as np
import pytest

from oracles import constraint_violations
from repro.ilp.model import IlpModel


class TestVariables:
    def test_add_variables(self):
        m = IlpModel()
        x = m.add_binary("x")
        y = m.add_continuous("y", lb=1.0, ub=5.0)
        z = m.add_variable("z", lb=0, ub=10, integer=True)
        assert (x, y, z) == (0, 1, 2)
        assert m.num_variables == 3
        assert m.var_integer == [True, False, True]
        assert m.var_ub[0] == 1.0

    def test_invalid_bounds_rejected(self):
        m = IlpModel()
        with pytest.raises(ValueError):
            m.add_variable("bad", lb=2.0, ub=1.0)


class TestConstraints:
    def test_add_constraint_forms(self):
        m = IlpModel()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_le({x: 1.0, y: 2.0}, 10.0)
        m.add_ge({x: 1.0}, 1.0)
        m.add_eq({y: 1.0}, 4.0)
        assert m.num_constraints == 3
        assert m.constraints[0].ub == 10.0
        assert m.constraints[1].lb == 1.0
        assert m.constraints[2].lb == m.constraints[2].ub == 4.0

    def test_zero_coefficients_dropped(self):
        m = IlpModel()
        x = m.add_continuous("x")
        m.add_le({x: 0.0}, 1.0)
        assert m.constraints[0].coeffs == {}

    def test_unknown_variable_rejected(self):
        m = IlpModel()
        m.add_continuous("x")
        with pytest.raises(IndexError):
            m.add_le({5: 1.0}, 1.0)

    def test_constraint_violations(self):
        m = IlpModel()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_le({x: 1.0, y: 1.0}, 3.0, name="cap")
        assert constraint_violations(m, [1.0, 1.0]) == []
        violations = constraint_violations(m, [2.0, 2.0])
        assert len(violations) == 1 and "cap" in violations[0]


class TestObjective:
    def test_set_and_accumulate(self):
        m = IlpModel()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.set_objective({x: 2.0}, constant=1.0)
        m.add_objective_term(y, 3.0)
        m.add_objective_term(x, 1.0)
        assert m.objective == {x: 3.0, y: 3.0}
        assert m.objective_value([1.0, 2.0]) == pytest.approx(3 + 6 + 1)

    def test_zero_term_ignored(self):
        m = IlpModel()
        x = m.add_continuous("x")
        m.add_objective_term(x, 0.0)
        assert m.objective == {}


class TestCompilation:
    def test_to_arrays_round_trip(self):
        m = IlpModel()
        x = m.add_binary("x")
        y = m.add_continuous("y", ub=4.0)
        m.add_le({x: 2.0, y: 1.0}, 5.0)
        m.add_ge({y: 1.0}, 1.0)
        m.set_objective({x: -1.0, y: -1.0})
        c, A, c_lb, c_ub, b_lb, b_ub, integrality = m.to_arrays()
        assert c.tolist() == [-1.0, -1.0]
        assert A.shape == (2, 2)
        assert A.toarray()[0].tolist() == [2.0, 1.0]
        assert np.isinf(c_lb[0]) and c_ub[0] == 5.0
        assert c_lb[1] == 1.0 and np.isinf(c_ub[1])
        assert b_ub[0] == 1.0 and b_ub[1] == 4.0
        assert integrality.tolist() == [1, 0]

    def test_empty_model_compiles(self):
        m = IlpModel()
        c, A, *_ = m.to_arrays()
        assert c.shape == (0,)
        assert A.shape == (0, 0)
