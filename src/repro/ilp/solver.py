"""MILP solver backends.

The paper uses the open-source CBC solver with per-call time limits; this
reproduction substitutes SciPy's bundled HiGHS MILP solver
(``scipy.optimize.milp``, a declared dependency) and offers a pure-Python
branch and bound (:mod:`repro.ilp.bnb`) as an independent second backend.
Both are driven through :func:`solve`, which normalizes the result into a
:class:`SolverResult`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import IlpModel

__all__ = ["SolverStatus", "SolverResult", "solve", "solve_with_highs"]


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


def solve_with_highs(
    model: IlpModel,
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
) -> SolverResult:
    """Solve with ``scipy.optimize.milp`` (HiGHS)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, A, c_lb, c_ub, b_lb, b_ub, integrality = model.to_arrays()
    constraints = LinearConstraint(A, c_lb, c_ub) if model.num_constraints else ()
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)
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


def solve(
    model: IlpModel,
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
    backend: str = "highs",
) -> SolverResult:
    """Solve a model with the requested backend (``"highs"`` or ``"bnb"``).

    The branch-and-bound backend is an independent oracle that cross-checks
    the formulations in tests; it is only suitable for small models.
    """
    if backend == "highs":
        return solve_with_highs(model, time_limit=time_limit, mip_rel_gap=mip_rel_gap)
    if backend == "bnb":
        from .bnb import solve_branch_and_bound

        return solve_branch_and_bound(model, time_limit=time_limit)
    raise ValueError(f"unknown solver backend {backend!r}")
