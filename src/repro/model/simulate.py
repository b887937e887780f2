"""Timeline simulation of a BSP schedule.

The cost function collapses each superstep into a single number; this module
expands a schedule into an explicit execution timeline — when each
computation phase and each communication phase of every superstep starts and
ends under the BSP timing assumptions — which is useful for visualization,
for sanity-checking the cost function (the makespan of the timeline equals
the total cost by construction of the model, up to the sub-tolerance traffic
of supersteps that do not occur), and for exporting traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .cost import evaluate, superstep_occurs
from .schedule import BspSchedule

__all__ = ["PhaseInterval", "NodeExecution", "ScheduleTimeline", "simulate_timeline"]


@dataclass(frozen=True)
class PhaseInterval:
    """Start/end of one phase (computation or communication) of a superstep."""

    superstep: int
    kind: str  # "compute", "communicate" or "latency"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class NodeExecution:
    """Execution interval of a single node on its processor."""

    node: int
    processor: int
    superstep: int
    start: float
    end: float


@dataclass
class ScheduleTimeline:
    """Explicit timeline of a BSP schedule."""

    phases: List[PhaseInterval]
    executions: List[NodeExecution]
    makespan: float

    def phases_of(self, superstep: int) -> List[PhaseInterval]:
        return [p for p in self.phases if p.superstep == superstep]

    def executions_on(self, processor: int) -> List[NodeExecution]:
        return sorted(
            (e for e in self.executions if e.processor == processor), key=lambda e: e.start
        )


def simulate_timeline(schedule: BspSchedule) -> ScheduleTimeline:
    """Expand a schedule into phase intervals and per-node execution intervals.

    Within a computation phase, the nodes assigned to a processor are
    executed back to back in topological order.  The phase lasts as long as
    the busiest processor (the work cost of the superstep); the communication
    phase lasts ``g`` times the h-relation; the latency is charged at the end
    of every occurring superstep, by the rule of
    :func:`~repro.model.cost.superstep_occurs`.  The resulting makespan
    therefore equals the schedule's total cost, up to the sub-tolerance
    traffic of supersteps that do not occur.
    """
    breakdown = evaluate(schedule)
    dag = schedule.dag
    machine = schedule.machine
    S = breakdown.work_matrix.shape[0]

    topo_position = np.empty(dag.n, dtype=np.int64)
    topo_position[dag.topological_order()] = np.arange(dag.n)
    order, bounds = (a.tolist() for a in schedule.superstep_blocks(S, topo_position))
    proc = schedule.proc.tolist()
    node_work = dag.work.tolist()
    occurring = superstep_occurs(
        breakdown.work_matrix, breakdown.send_matrix, breakdown.recv_matrix
    ).tolist()
    phases: List[PhaseInterval] = []
    executions: List[NodeExecution] = []
    clock = 0.0

    for s in range(S):
        if not occurring[s]:
            continue
        # Computation phase.
        work_duration = float(breakdown.work_per_step[s])
        if work_duration > 0:
            phases.append(PhaseInterval(s, "compute", clock, clock + work_duration))
        per_processor_cursor: Dict[int, float] = {p: clock for p in range(machine.P)}
        for v in order[bounds[s]:bounds[s + 1]]:
            p = proc[v]
            start = per_processor_cursor[p]
            end = start + float(node_work[v])
            per_processor_cursor[p] = end
            executions.append(NodeExecution(v, p, s, start, end))
        clock += work_duration
        # Communication phase.
        comm_duration = float(machine.g) * float(breakdown.comm_per_step[s])
        if comm_duration > 0:
            phases.append(PhaseInterval(s, "communicate", clock, clock + comm_duration))
            clock += comm_duration
        # Latency / synchronization overhead.
        if machine.l > 0:
            phases.append(PhaseInterval(s, "latency", clock, clock + float(machine.l)))
            clock += float(machine.l)

    return ScheduleTimeline(phases=phases, executions=executions, makespan=clock)
