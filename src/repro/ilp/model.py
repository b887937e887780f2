"""A small mixed-integer linear programming modelling layer.

The paper formulates (parts of) the BSP scheduling problem as ILPs and hands
them to the CBC solver.  CBC is not available offline, so this repository
ships its own thin modelling layer which compiles to ``scipy.optimize.milp``
(the HiGHS solver bundled with SciPy).

The layer is deliberately minimal: variables are referenced by integer
index, constraints are sparse row dictionaries ``{var_index: coefficient}``
with lower/upper bounds, and the objective is a sparse vector.  This is all
the BSP formulations need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["IlpModel", "Constraint", "INF"]

INF = float("inf")


@dataclass
class Constraint:
    """A linear constraint ``lb <= sum(coeffs[i] * x[i]) <= ub``."""

    coeffs: Dict[int, float]
    lb: float
    ub: float
    name: str = ""


@dataclass
class IlpModel:
    """A minimization MILP built incrementally by the formulations."""

    name: str = "model"
    var_names: List[str] = field(default_factory=list)
    var_lb: List[float] = field(default_factory=list)
    var_ub: List[float] = field(default_factory=list)
    var_integer: List[bool] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)
    objective: Dict[int, float] = field(default_factory=dict)
    objective_constant: float = 0.0

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.var_names)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = INF,
        integer: bool = False,
    ) -> int:
        """Add a variable and return its index."""
        if ub < lb:
            raise ValueError(f"variable {name}: upper bound below lower bound")
        self.var_names.append(name)
        self.var_lb.append(float(lb))
        self.var_ub.append(float(ub))
        self.var_integer.append(bool(integer))
        return len(self.var_names) - 1

    def add_binary(self, name: str) -> int:
        """Add a binary (0/1) variable and return its index."""
        return self.add_variable(name, 0.0, 1.0, integer=True)

    def add_continuous(self, name: str, lb: float = 0.0, ub: float = INF) -> int:
        """Add a continuous variable and return its index."""
        return self.add_variable(name, lb, ub, integer=False)

    # ------------------------------------------------------------------
    # Constraints and objective
    # ------------------------------------------------------------------
    def add_constraint(
        self,
        coeffs: Dict[int, float],
        lb: float = -INF,
        ub: float = INF,
        name: str = "",
    ) -> None:
        """Add ``lb <= coeffs . x <= ub``; zero-coefficient terms are dropped."""
        cleaned = {int(i): float(c) for i, c in coeffs.items() if c != 0.0}
        for i in cleaned:
            if not (0 <= i < self.num_variables):
                raise IndexError(f"constraint {name!r} references unknown variable {i}")
        self.constraints.append(Constraint(cleaned, float(lb), float(ub), name))

    def add_le(self, coeffs: Dict[int, float], rhs: float, name: str = "") -> None:
        """Add ``coeffs . x <= rhs``."""
        self.add_constraint(coeffs, -INF, rhs, name)

    def add_ge(self, coeffs: Dict[int, float], rhs: float, name: str = "") -> None:
        """Add ``coeffs . x >= rhs``."""
        self.add_constraint(coeffs, rhs, INF, name)

    def add_eq(self, coeffs: Dict[int, float], rhs: float, name: str = "") -> None:
        """Add ``coeffs . x == rhs``."""
        self.add_constraint(coeffs, rhs, rhs, name)

    def set_objective(self, coeffs: Dict[int, float], constant: float = 0.0) -> None:
        """Set the minimization objective ``coeffs . x + constant``."""
        self.objective = {int(i): float(c) for i, c in coeffs.items() if c != 0.0}
        self.objective_constant = float(constant)

    def add_objective_term(self, var: int, coeff: float) -> None:
        """Accumulate a term into the objective."""
        if coeff == 0.0:
            return
        self.objective[var] = self.objective.get(var, 0.0) + float(coeff)

    # ------------------------------------------------------------------
    # Compilation to array form (used by the solver)
    # ------------------------------------------------------------------
    def to_arrays(self):
        """Return ``(c, A, c_lb, c_ub, bounds_lb, bounds_ub, integrality)``.

        ``A`` is a dense ``(m, n)`` matrix when small and a
        ``scipy.sparse.csr_matrix`` otherwise; both are accepted by
        ``scipy.optimize.milp``.
        """
        import scipy.sparse as sp

        n = self.num_variables
        m = self.num_constraints
        c = np.zeros(n, dtype=np.float64)
        for i, coeff in self.objective.items():
            c[i] = coeff
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        c_lb = np.full(m, -np.inf)
        c_ub = np.full(m, np.inf)
        for r, cons in enumerate(self.constraints):
            c_lb[r] = cons.lb
            c_ub[r] = cons.ub
            for i, coeff in cons.coeffs.items():
                rows.append(r)
                cols.append(i)
                data.append(coeff)
        A = sp.csr_matrix((data, (rows, cols)), shape=(m, n))
        bounds_lb = np.array(self.var_lb, dtype=np.float64)
        bounds_ub = np.array(self.var_ub, dtype=np.float64)
        integrality = np.array([1 if b else 0 for b in self.var_integer], dtype=np.int64)
        return c, A, c_lb, c_ub, bounds_lb, bounds_ub, integrality

    def objective_value(self, x: Sequence[float]) -> float:
        """Objective value of an assignment (including the constant term)."""
        x = np.asarray(x, dtype=np.float64)
        return float(sum(coeff * x[i] for i, coeff in self.objective.items()) + self.objective_constant)
