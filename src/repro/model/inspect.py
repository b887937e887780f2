"""Human-readable inspection of BSP schedules.

The cost function says *how good* a schedule is; these helpers show *what it
looks like*: a per-superstep summary (work per processor, h-relation, which
values cross processors) and a compact text "Gantt" view of the supersteps.
They are used by the CLI and the examples, and are handy when debugging a
scheduler.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from .cost import CostBreakdown, evaluate
from .schedule import BspSchedule

__all__ = ["SuperstepSummary", "summarize_supersteps", "describe_schedule", "schedule_to_text_gantt"]


@dataclass(frozen=True)
class SuperstepSummary:
    """Aggregate view of one superstep of a schedule."""

    index: int
    nodes_per_processor: Dict[int, int]
    work_per_processor: Dict[int, float]
    work_cost: float
    comm_cost: float
    num_transfers: int

    @property
    def busiest_processor(self) -> int:
        if not self.work_per_processor:
            return 0
        return max(self.work_per_processor, key=lambda p: self.work_per_processor[p])


def summarize_supersteps(schedule: BspSchedule) -> List[SuperstepSummary]:
    """Per-superstep summaries (one entry per superstep index in use)."""
    return _summaries(schedule, evaluate(schedule))


def _summaries(schedule: BspSchedule, breakdown: CostBreakdown) -> List[SuperstepSummary]:
    S = breakdown.work_matrix.shape[0]
    if schedule.comm is None:
        transfers_per_step = Counter(schedule.lazy_transfers()[3].tolist())
    else:
        transfers_per_step = Counter(s for (_, p1, p2, s) in schedule.comm if p1 != p2)

    order, bounds = (a.tolist() for a in schedule.superstep_blocks(S))
    proc = schedule.proc.tolist()
    node_work = schedule.dag.work.tolist()
    summaries: List[SuperstepSummary] = []
    for s in range(S):
        nodes: Dict[int, int] = {}
        work: Dict[int, float] = {}
        for v in order[bounds[s]:bounds[s + 1]]:
            p = proc[v]
            nodes[p] = nodes.get(p, 0) + 1
            work[p] = work.get(p, 0.0) + float(node_work[v])
        summaries.append(
            SuperstepSummary(
                index=s,
                nodes_per_processor=nodes,
                work_per_processor=work,
                work_cost=float(breakdown.work_per_step[s]),
                comm_cost=float(breakdown.comm_per_step[s]),
                num_transfers=transfers_per_step.get(s, 0),
            )
        )
    return summaries


def describe_schedule(schedule: BspSchedule, name: str = "") -> str:
    """Multi-line text description of a schedule (cost breakdown + supersteps)."""
    breakdown = evaluate(schedule)
    machine = schedule.machine
    lines: List[str] = []
    title = name or f"schedule of {schedule.dag.name}"
    lines.append(f"{title}: {schedule.dag.n} nodes on {machine.describe()}")
    lines.append(
        f"  total cost {breakdown.total:.1f} = work {breakdown.work_cost:.1f}"
        f" + {machine.g:g} x comm {breakdown.comm_cost / machine.g if machine.g else 0.0:.1f}"
        f" + latency {breakdown.latency_cost:.1f}"
        f"  ({breakdown.num_supersteps} supersteps)"
    )
    for summary in _summaries(schedule, breakdown):
        if not summary.nodes_per_processor and summary.comm_cost == 0:
            continue
        proc_bits = ", ".join(
            f"p{p}: {summary.nodes_per_processor[p]} nodes / {summary.work_per_processor[p]:.0f} work"
            for p in sorted(summary.nodes_per_processor)
        )
        lines.append(
            f"  superstep {summary.index}: work cost {summary.work_cost:.0f}, "
            f"h-relation {summary.comm_cost:.0f}, {summary.num_transfers} transfers"
            + (f"  [{proc_bits}]" if proc_bits else "")
        )
    return "\n".join(lines)


def schedule_to_text_gantt(schedule: BspSchedule, width: int = 40) -> str:
    """Compact text Gantt chart: one row per processor, one column block per
    superstep, block width proportional to that superstep's work cost."""
    breakdown = evaluate(schedule)
    S = breakdown.work_matrix.shape[0]
    P = schedule.machine.P
    if S == 0:
        return "(empty schedule)"
    total_work_cost = float(breakdown.work_per_step.sum()) or 1.0
    widths = [
        max(3, int(round(width * float(breakdown.work_per_step[s]) / total_work_cost)))
        for s in range(S)
    ]
    header = "      " + " ".join(f"s{s}".center(widths[s]) for s in range(S))
    rows = [header]
    for p in range(P):
        cells = []
        for s in range(S):
            load = breakdown.work_matrix[s, p]
            peak = breakdown.work_per_step[s]
            if load <= 0:
                fill = "."
            elif peak > 0 and load >= peak - 1e-9:
                fill = "#"  # this processor determines the superstep's work cost
            else:
                fill = "="
            cells.append((fill * widths[s])[: widths[s]])
        rows.append(f"p{p:<4} " + " ".join(cells))
    return "\n".join(rows)
