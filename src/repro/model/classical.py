"""Classical (time-based) schedules and their conversion to BSP.

The Cilk, BL-EST and ETF baselines assign nodes to concrete start times on
processors, like classical makespan schedulers.  The paper (Section 4.1 and
Appendix A.1) converts such a schedule to a BSP schedule by inserting a
superstep barrier whenever a node is about to start that still needs data
from a different processor produced in the current (unfinished) superstep.

This module provides the :class:`ClassicalSchedule` container and the
:func:`classical_to_bsp` conversion used by those baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graphs.dag import ComputationalDAG
from .machine import BspMachine
from .schedule import BspSchedule

__all__ = ["ClassicalSchedule", "classical_to_bsp"]


@dataclass
class ClassicalSchedule:
    """A schedule assigning each node a processor and a start time.

    ``finish[v] = start[v] + w(v)``; the makespan is the largest finish time.
    Validity in the classical sense (precedences respected with respect to
    the delays the constructing scheduler assumed) is the responsibility of
    the scheduler; the BSP conversion only uses the ordering of start times.
    """

    dag: ComputationalDAG
    machine: BspMachine
    proc: np.ndarray
    start: np.ndarray

    def __post_init__(self) -> None:
        self.proc = np.asarray(self.proc, dtype=np.int64).copy()
        self.start = np.asarray(self.start, dtype=np.float64).copy()
        if len(self.proc) != self.dag.n or len(self.start) != self.dag.n:
            raise ValueError("proc/start arrays must have one entry per node")

    @property
    def finish(self) -> np.ndarray:
        """Finish time of each node."""
        return self.start + self.dag.work.astype(np.float64)

    @property
    def makespan(self) -> float:
        """Largest finish time (0 for an empty DAG)."""
        if self.dag.n == 0:
            return 0.0
        return float(self.finish.max())

    def execution_order(self) -> List[int]:
        """Nodes sorted by (start time, topological position).

        Ties in start time are broken by topological order so that the BSP
        conversion below processes predecessors before successors.
        """
        topo_pos = {v: i for i, v in enumerate(self.dag.topological_order())}
        return sorted(range(self.dag.n), key=lambda v: (self.start[v], topo_pos[v]))


def classical_to_bsp(classical: ClassicalSchedule) -> BspSchedule:
    """Convert a classical schedule to a BSP schedule (paper Appendix A.1).

    Nodes are scanned in order of start time.  A node can join the current
    superstep unless one of its direct predecessors is assigned to a
    *different* processor and has not yet been placed in an *earlier*
    superstep — in that case a superstep barrier is inserted (so that the
    pending value can be communicated) and the node starts the next
    superstep.  The processor assignment is kept unchanged.
    """
    dag = classical.dag
    n = dag.n
    proc = classical.proc
    step = np.zeros(n, dtype=np.int64)
    if n == 0:
        return BspSchedule(dag, classical.machine, proc.copy(), step)

    assigned_step = np.full(n, -1, dtype=np.int64)
    current = 0
    for v in classical.execution_order():
        needs_barrier = False
        min_step = 0
        for u in dag.parents(v):
            su = assigned_step[u]
            if su == -1:
                # Predecessor not yet placed: cannot happen for a schedule
                # whose start times respect precedence, but guard anyway.
                needs_barrier = True
                continue
            if proc[u] != proc[v]:
                # Value must be communicated, i.e. cross a superstep barrier.
                if su >= current:
                    needs_barrier = True
                min_step = max(min_step, su + 1)
            else:
                min_step = max(min_step, su)
        if needs_barrier:
            current += 1
        current = max(current, min_step)
        assigned_step[v] = current

    step[:] = assigned_step
    return BspSchedule(dag, classical.machine, proc.copy(), step)
