"""Cilk-style work-stealing baseline (paper Section 4.1, Appendix A.1).

The scheduler is an event-driven simulation of the classic work-stealing
strategy adapted to DAGs:

* every processor keeps a stack of ready tasks;
* when the execution of the *last* unfinished predecessor of a node finishes
  on processor ``p``, the node is pushed onto the top of ``p``'s stack;
* an idle processor pops the top of its own stack, or — if empty — steals
  from the *bottom* of the stack of a uniformly random other processor with
  a non-empty stack;
* no processor idles while any ready task exists anywhere.

The simulation ignores communication costs (that is precisely the point of
this baseline) and produces a classical time-based schedule, which is then
converted into BSP supersteps with :func:`repro.model.classical.classical_to_bsp`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.classical import ClassicalSchedule, classical_to_bsp
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..scheduler import Scheduler

__all__ = ["CilkScheduler", "simulate_work_stealing"]


def simulate_work_stealing(
    dag: ComputationalDAG,
    machine: BspMachine,
    seed: Optional[int] = 0,
) -> ClassicalSchedule:
    """Event-driven simulation of DAG work stealing; returns start times."""
    n = dag.n
    P = machine.P
    rng = np.random.default_rng(seed)
    proc = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.float64)
    if n == 0:
        return ClassicalSchedule(dag, machine, proc, start)

    remaining_parents = np.diff(dag.pred_indptr).copy()
    stacks: List[Deque[int]] = [deque() for _ in range(P)]
    # Sources are spawned by the "main" task on processor 0, mirroring the
    # original Cilk setting where the root process runs on one worker.
    for v in dag.topological_order():
        if remaining_parents[v] == 0:
            stacks[0].append(v)
    # Tasks on all stacks together: an idle processor with none to take or
    # steal returns at once instead of scanning P stacks for a victim.
    ready = len(stacks[0])

    # (finish_time, sequence, node, processor) events; sequence breaks ties
    # deterministically.
    events: List[Tuple[float, int, int, int]] = []
    seq = 0
    busy = [False] * P
    scheduled = 0

    def try_assign(p: int, now: float) -> None:
        nonlocal seq, scheduled, ready
        if ready == 0:
            return
        if stacks[p]:
            node = stacks[p].pop()  # own stack: take the top (LIFO)
        else:
            # ready > 0, so some other stack is non-empty.
            candidates = [q for q in range(P) if q != p and stacks[q]]
            victim = int(rng.choice(candidates))
            node = stacks[victim].popleft()  # steal from the bottom (FIFO)
        ready -= 1
        proc[node] = p
        start[node] = now
        busy[p] = True
        seq += 1
        scheduled += 1
        heapq.heappush(events, (now + float(dag.work[node]), seq, node, p))

    # Kick off: all processors try to grab work at time 0.
    for p in range(P):
        try_assign(p, 0.0)

    while events:
        time, _, node, p = heapq.heappop(events)
        busy[p] = False
        # The finishing node releases its children; they are pushed on the
        # top of the finishing processor's stack.
        for child in dag.children(node):
            remaining_parents[child] -= 1
            if remaining_parents[child] == 0:
                stacks[p].append(child)
                ready += 1
        # Give work to every idle processor (the finisher first, so locally
        # spawned children tend to stay local like in Cilk).
        for q in [p] + [q for q in range(P) if q != p]:
            if not busy[q]:
                try_assign(q, time)

    if scheduled != n:
        # This can only happen if the DAG had a cycle, which the constructor
        # already excludes — guard to fail loudly rather than silently.
        raise RuntimeError("work-stealing simulation did not schedule all nodes")
    return ClassicalSchedule(dag, machine, proc, start)


class CilkScheduler(Scheduler):
    """Work-stealing baseline, converted to a BSP schedule."""

    name = "Cilk"

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = seed

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        classical = simulate_work_stealing(dag, machine, seed=self.seed)
        return classical_to_bsp(classical)
