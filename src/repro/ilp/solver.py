"""The MILP solver.

The paper uses the open-source CBC solver with per-call time limits; this
reproduction substitutes SciPy's bundled HiGHS MILP solver
(``scipy.optimize.milp``, a declared dependency).  :func:`solve` runs it and
normalizes the result into a :class:`SolverResult`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import IlpModel

__all__ = ["SolverStatus", "SolverResult", "solve"]


class SolverStatus(enum.Enum):
    """Normalized solver outcome."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # a solution was found but optimality not proven
    INFEASIBLE = "infeasible"
    NO_SOLUTION = "no_solution"  # time/size limit hit before any solution


@dataclass
class SolverResult:
    """Outcome of a MILP solve."""

    status: SolverStatus
    objective: Optional[float]
    values: Optional[np.ndarray]

    @property
    def has_solution(self) -> bool:
        return self.values is not None

    def value(self, index: int) -> float:
        """Value of variable ``index`` (requires a solution)."""
        if self.values is None:
            raise ValueError("solver returned no solution")
        return float(self.values[index])

    def binary_value(self, index: int) -> bool:
        """Rounded 0/1 value of a binary variable."""
        return self.value(index) > 0.5


def solve(model: IlpModel, time_limit: Optional[float] = None) -> SolverResult:
    """Solve ``model`` with ``scipy.optimize.milp`` (HiGHS)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, A, c_lb, c_ub, b_lb, b_ub, integrality = model.to_arrays()
    constraints = LinearConstraint(A, c_lb, c_ub) if model.num_constraints else ()
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    options["disp"] = False
    res = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(b_lb, b_ub),
        options=options,
    )
    # HiGHS status codes (scipy): 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 other.
    if res.x is not None:
        status = SolverStatus.OPTIMAL if res.status == 0 else SolverStatus.FEASIBLE
        return SolverResult(status, float(res.fun) + model.objective_constant, np.asarray(res.x))
    if res.status == 2:
        return SolverResult(SolverStatus.INFEASIBLE, None, None)
    return SolverResult(SolverStatus.NO_SOLUTION, None, None)

