"""ILPpart: iterative re-optimization of superstep windows (paper 4.4).

Given a starting BSP schedule, the range of supersteps is split (from back
to front) into disjoint intervals; the interval grows until the estimated
ILP size ``|V0| * |S0| * P^2`` exceeds a configurable threshold (4 000 in the
paper).  For each interval, the nodes currently assigned to it are
re-assigned by a window ILP (see :mod:`repro.ilp.formulation`) while the
rest of the schedule is fixed; the re-assignment is accepted only if the
resulting schedule — rebuilt with the lazy communication schedule and
evaluated with the exact cost function — is valid and strictly cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..model.schedule import BspSchedule
from .formulation import build_bsp_ilp, estimate_variable_count
from .solver import solve

__all__ = ["PartialIlpImprover", "superstep_windows"]


def superstep_windows(
    schedule: BspSchedule, P: int, max_variables: int = 4000
) -> List[Tuple[int, int]]:
    """Split the schedule's supersteps into windows, back to front.

    Each window ``[s1, s2]`` is grown (towards earlier supersteps) while the
    estimated number of ILP variables stays below ``max_variables``; a window
    always contains at least one superstep.
    """
    S = schedule.num_supersteps
    if S == 0:
        return []
    nodes_per_step = np.zeros(S, dtype=np.int64)
    for v in range(schedule.dag.n):
        nodes_per_step[int(schedule.step[v])] += 1

    windows: List[Tuple[int, int]] = []
    s2 = S - 1
    while s2 >= 0:
        s1 = s2
        nodes = int(nodes_per_step[s2])
        while s1 - 1 >= 0:
            cand_nodes = nodes + int(nodes_per_step[s1 - 1])
            cand_steps = s2 - (s1 - 1) + 1
            # A window always contains at least one superstep; it stops
            # growing once the size estimate would be exceeded.
            if estimate_variable_count(cand_nodes, cand_steps, P) > max_variables:
                break
            s1 -= 1
            nodes = cand_nodes
        windows.append((s1, s2))
        s2 = s1 - 1
    return windows


@dataclass
class PartialIlpImprover:
    """Iteratively re-optimize superstep windows of a schedule."""

    max_variables: int = 4000
    time_limit_per_window: Optional[float] = 20.0
    name: str = "ILPpart"

    def improve(self, schedule: BspSchedule) -> BspSchedule:
        """Return the improved schedule (never worse than the input)."""
        current = schedule.normalized().without_comm()
        P = current.machine.P
        for (s1, s2) in superstep_windows(current, P, self.max_variables):
            free_nodes = [
                v for v in range(current.dag.n) if s1 <= int(current.step[v]) <= s2
            ]
            if not free_nodes:
                continue
            form = build_bsp_ilp(
                current.dag,
                current.machine,
                free_nodes=free_nodes,
                s_first=s1,
                s_last=s2,
                base_proc=current.proc,
                base_step=current.step,
                name=f"ILPpart[{s1},{s2}]",
            )
            result = solve(form.model, time_limit=self.time_limit_per_window)
            if not result.has_solution:
                continue
            try:
                proc, step = form.extract_assignment(result)
            except ValueError:
                continue
            candidate = BspSchedule(current.dag, current.machine, proc, step)
            if candidate.is_valid() and candidate.cost() < current.cost():
                current = candidate
        return current.normalized()
