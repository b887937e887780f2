"""ILPfull: the whole BSP scheduling problem as a single ILP (paper 4.4).

This is the naive formulation of [28] (their FS submodel) with the paper's
small simplifications.  It only scales to very small DAGs — the paper caps
it at roughly 20 000 variables — but on those it produces (near-)optimal
schedules and is the strongest tool in the framework.
"""

from __future__ import annotations

from typing import Optional

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..scheduler import Scheduler
from .formulation import build_bsp_ilp, estimate_variable_count
from .solver import solve

__all__ = ["IlpFullScheduler", "solve_full_ilp"]

#: The paper only attempts ILPfull below roughly this many variables.
DEFAULT_MAX_VARIABLES = 20_000


def solve_full_ilp(
    dag: ComputationalDAG,
    machine: BspMachine,
    max_supersteps: int,
    *,
    time_limit: Optional[float] = None,
) -> Optional[BspSchedule]:
    """Solve the full problem with at most ``max_supersteps`` supersteps.

    Returns ``None`` when the solver finds no feasible solution within the
    limits.  The returned schedule uses the lazy communication schedule
    derived from the ILP's node assignment.
    """
    form = build_bsp_ilp(
        dag,
        machine,
        s_first=0,
        s_last=max(max_supersteps, 1) - 1,
        name="ILPfull",
    )
    result = solve(form.model, time_limit=time_limit)
    if not result.has_solution:
        return None
    schedule = form.extract_schedule(result)
    schedule.validate()
    return schedule


class IlpFullScheduler(Scheduler):
    """Scheduler wrapper around :func:`solve_full_ilp`.

    The number of supersteps made available to the ILP is taken from an
    initial schedule (produced by ``initializer``), mirroring how the paper
    seeds the solver with a heuristic solution.  If the estimated variable
    count exceeds ``max_variables`` the initial schedule is returned
    unchanged (ILPfull "not applicable", as in the paper's pipeline).
    """

    name = "ILPfull"

    def __init__(
        self,
        initializer: Optional[Scheduler] = None,
        *,
        time_limit: Optional[float] = 60.0,
        max_variables: int = DEFAULT_MAX_VARIABLES,
    ) -> None:
        if initializer is None:
            from ..heuristics.bspg import BspGreedyScheduler

            initializer = BspGreedyScheduler()
        self.initializer = initializer
        self.time_limit = time_limit
        self.max_variables = max_variables

    @property
    def deterministic(self) -> bool:
        return self.time_limit is None and self.initializer.deterministic

    def applicable(self, dag: ComputationalDAG, machine: BspMachine, num_supersteps: int) -> bool:
        """Whether the estimated ILP size is within the configured limit."""
        return estimate_variable_count(dag.n, num_supersteps, machine.P) <= self.max_variables

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        initial = self.initializer.schedule(dag, machine)
        num_supersteps = max(initial.num_supersteps, 1)
        if not self.applicable(dag, machine, num_supersteps):
            return initial
        solved = solve_full_ilp(dag, machine, num_supersteps, time_limit=self.time_limit)
        if solved is None:
            return initial
        # Keep whichever schedule is cheaper: the ILP window is bounded by
        # the initial schedule's superstep count, so the heuristic can in
        # principle still win.
        if solved.cost() <= initial.cost():
            return solved
        return initial
