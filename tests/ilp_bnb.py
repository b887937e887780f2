"""Pure-Python branch-and-bound MILP solver (the tests' oracle for HiGHS).

Solves small mixed-integer programs by LP-relaxation branch and bound, using
``scipy.optimize.linprog`` (HiGHS simplex/IPM) for the relaxations.  It is
*not* meant to compete with a real MILP solver — it exists so that the
formulations can be cross-checked against an independent solver in the test
suite.

Best-first search on the relaxation bound, branching on the most fractional
integer variable.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.ilp.model import IlpModel
from repro.ilp.solver import SolverResult, SolverStatus

__all__ = ["solve_branch_and_bound"]

_INT_TOL = 1e-6


def _solve_relaxation(model: IlpModel, lb: np.ndarray, ub: np.ndarray):
    """LP relaxation with the given variable bounds; returns (obj, x) or None."""
    from scipy.optimize import linprog

    c, A, c_lb, c_ub, _, _, _ = model.to_arrays()
    # linprog wants A_ub x <= b_ub and A_eq x = b_eq; split two-sided rows.
    import scipy.sparse as sp

    A = sp.csr_matrix(A)
    ub_rows = []
    ub_rhs = []
    eq_rows = []
    eq_rhs = []
    for r in range(A.shape[0]):
        row = A.getrow(r)
        lo, hi = c_lb[r], c_ub[r]
        if np.isfinite(lo) and np.isfinite(hi) and lo == hi:
            eq_rows.append(row)
            eq_rhs.append(lo)
            continue
        if np.isfinite(hi):
            ub_rows.append(row)
            ub_rhs.append(hi)
        if np.isfinite(lo):
            ub_rows.append(-row)
            ub_rhs.append(-lo)
    A_ub = sp.vstack(ub_rows) if ub_rows else None
    A_eq = sp.vstack(eq_rows) if eq_rows else None
    bounds = list(zip(lb.tolist(), [x if np.isfinite(x) else None for x in ub.tolist()]))
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
        A_eq=A_eq,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        return None
    return float(res.fun), np.asarray(res.x)


def solve_branch_and_bound(
    model: IlpModel,
    time_limit: Optional[float] = None,
    max_nodes: int = 20_000,
) -> SolverResult:
    """Best-first branch and bound over the LP relaxation."""
    n = model.num_variables
    lb0 = np.array(model.var_lb, dtype=np.float64)
    ub0 = np.array(model.var_ub, dtype=np.float64)
    integer_vars = [i for i in range(n) if model.var_integer[i]]

    start = time.monotonic()
    counter = itertools.count()

    root = _solve_relaxation(model, lb0, ub0)
    if root is None:
        return SolverResult(SolverStatus.INFEASIBLE, None, None)

    best_obj = np.inf
    best_x: Optional[np.ndarray] = None
    # heap of (relaxation bound, tie-breaker, lb, ub)
    heap: List[Tuple[float, int, np.ndarray, np.ndarray]] = [
        (root[0], next(counter), lb0, ub0)
    ]
    nodes_explored = 0
    timed_out = False

    while heap:
        if time_limit is not None and time.monotonic() - start > time_limit:
            timed_out = True
            break
        if nodes_explored >= max_nodes:
            timed_out = True
            break
        bound, _, lb, ub = heapq.heappop(heap)
        if bound >= best_obj - 1e-9:
            continue
        relax = _solve_relaxation(model, lb, ub)
        nodes_explored += 1
        if relax is None:
            continue
        obj, x = relax
        if obj >= best_obj - 1e-9:
            continue
        # Find the most fractional integer variable.
        frac_var = -1
        frac_dist = _INT_TOL
        for i in integer_vars:
            frac = abs(x[i] - round(x[i]))
            if frac > frac_dist:
                frac_dist = frac
                frac_var = i
        if frac_var == -1:
            # Integral solution.
            if obj < best_obj:
                best_obj = obj
                best_x = x.copy()
                for i in integer_vars:
                    best_x[i] = round(best_x[i])
            continue
        floor_val = np.floor(x[frac_var])
        # Down branch.
        ub_down = ub.copy()
        ub_down[frac_var] = floor_val
        if ub_down[frac_var] >= lb[frac_var]:
            heapq.heappush(heap, (obj, next(counter), lb.copy(), ub_down))
        # Up branch.
        lb_up = lb.copy()
        lb_up[frac_var] = floor_val + 1
        if lb_up[frac_var] <= ub[frac_var]:
            heapq.heappush(heap, (obj, next(counter), lb_up, ub.copy()))

    if best_x is None:
        if timed_out:
            return SolverResult(SolverStatus.NO_SOLUTION, None, None)
        return SolverResult(SolverStatus.INFEASIBLE, None, None)
    status = SolverStatus.FEASIBLE if (timed_out or heap) else SolverStatus.OPTIMAL
    return SolverResult(status, best_obj + model.objective_constant, best_x)
