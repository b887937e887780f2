"""ILPinit: ILP-based construction of an initial schedule (paper 4.2 / A.4).

The DAG is cut into batches along a topological order; every batch is given
a small window of fresh supersteps and optimized with the shared window ILP
(:mod:`repro.ilp.formulation`), with all previously placed batches fixed and
the not-yet-placed successors disregarded.  The batch size grows until the
estimated ILP size ``|B| * |S0| * P^2`` reaches a threshold (2 000 in the
paper).

Compared to the paper's description this reproduction assigns each batch a
*fresh* window of ``supersteps_per_batch`` supersteps instead of overlapping
the tail of the existing schedule; the subsequent hill-climbing stage of the
pipeline compacts any superfluous supersteps.  The resulting schedule is
valid by construction (batch windows are disjoint and ordered).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..scheduler import Scheduler, SchedulingError
from .formulation import build_bsp_ilp, estimate_variable_count
from .solver import solve

__all__ = ["IlpInitScheduler", "topological_batches"]


def topological_batches(
    dag: ComputationalDAG, P: int, max_variables: int = 2000, supersteps_per_batch: int = 3
) -> List[List[int]]:
    """Cut a topological order into batches sized for the window ILP."""
    order = dag.topological_order()
    batches: List[List[int]] = []
    current: List[int] = []
    for v in order:
        current.append(v)
        if estimate_variable_count(len(current) + 1, supersteps_per_batch, P) > max_variables:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches


class IlpInitScheduler(Scheduler):
    """Batch-by-batch ILP construction of an initial BSP schedule."""

    name = "ILPinit"

    def __init__(
        self,
        *,
        max_variables: int = 2000,
        supersteps_per_batch: int = 3,
        time_limit_per_batch: Optional[float] = 15.0,
    ) -> None:
        if supersteps_per_batch < 1:
            raise ValueError("supersteps_per_batch must be at least 1")
        self.max_variables = max_variables
        self.supersteps_per_batch = supersteps_per_batch
        self.time_limit_per_batch = time_limit_per_batch

    @property
    def deterministic(self) -> bool:
        return self.time_limit_per_batch is None

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        n = dag.n
        P = machine.P
        proc = np.zeros(n, dtype=np.int64)
        step = np.zeros(n, dtype=np.int64)
        if n == 0:
            return BspSchedule(dag, machine, proc, step)

        placed = np.zeros(n, dtype=bool)
        batches = topological_batches(dag, P, self.max_variables, self.supersteps_per_batch)
        base = 0
        for batch in batches:
            s_first = base
            s_last = base + self.supersteps_per_batch - 1
            form = build_bsp_ilp(
                dag,
                machine,
                free_nodes=batch,
                s_first=s_first,
                s_last=s_last,
                base_proc=proc,
                base_step=step,
                background_consumers=False,
                name=f"ILPinit[{s_first},{s_last}]",
            )
            result = solve(form.model, time_limit=self.time_limit_per_batch)
            if result.has_solution:
                try:
                    new_proc, new_step = form.extract_assignment(result)
                    for v in batch:
                        proc[v] = new_proc[v]
                        step[v] = new_step[v]
                        placed[v] = True
                except ValueError:
                    result = None  # fall through to the greedy fallback below
            if not result or not result.has_solution:
                # Fallback: place the whole batch sequentially on the least
                # used processor of the window (always valid).
                for v in batch:
                    proc[v] = 0
                    step[v] = s_first
                    placed[v] = True
            base = s_last + 1

        if not placed.all():
            raise SchedulingError("ILPinit failed to place every node")
        schedule = BspSchedule(dag, machine, proc, step)
        return schedule.normalized()
