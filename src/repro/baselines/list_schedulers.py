"""BL-EST and ETF list schedulers with communication volume.

These are the strongest classical list-scheduling baselines identified by
recent comparison studies and already extended with communication volume by
Özkaya et al.; the paper uses exactly those versions (Section 4.1, Appendix
A.1).  Both schedulers repeatedly pick a ready node and place it on the
processor offering the earliest start time (EST), where the EST accounts for
the time needed to transfer each predecessor's output across processors
(``g * c(u)``, multiplied by the *average* NUMA coefficient when NUMA
effects are present — the baselines are deliberately not NUMA-aware).

* **BL-EST** selects the ready node with the largest *bottom level* (longest
  outgoing path by work weight) and then the EST-minimizing processor.
* **ETF** (Earliest Task First) selects, among all (ready node, processor)
  pairs, the pair with the smallest EST; ties are broken by bottom level.

Both produce classical time-based schedules that are converted to BSP
supersteps with :func:`repro.model.classical.classical_to_bsp`.

A ready node's *arrival* row (the EST contribution of its predecessors on
each processor) is fixed the moment the node becomes ready, and it has a
closed form.  Let ``b(u) = finish(u) + delay * c(u)``, ``B = max b(u)`` and
``q`` the processor of a parent attaining ``B``.  Weights, ``g`` and the
NUMA coefficients are non-negative, so ``b(u) >= finish(u)``: a processor
other than ``q`` receives the attaining parent's data by ``B`` and all other
data no later, so its arrival is exactly ``B``.  Only ``q`` can differ: its
arrival ``a`` is the larger of the latest finish on ``q`` and the largest
``b(u)`` off ``q`` (which is ``B`` again when ``B`` is attained on a second
processor, so a tie makes the row ``B`` throughout).  A row is thus two
Python passes over the parents, kept as ``(B, q, a)``; a processor's EST is
the larger of its arrival and its ready time.

BL-EST keeps the ready pool in a heap of ranks in the ``(-bottom level,
node)`` order, so each selection is one pop.

ETF keeps the rows in a dense ``(ready, P)`` table and caches, per ready
slot, the row's minimum EST over the memory-feasible processors and the
first processor reaching it (a row with no feasible processor fails the
run).  A placement on
``best_p`` changes only column ``best_p`` (its ready time grows, its
remaining memory shrinks), so only rows whose cached processor is
``best_p`` can be stale; new rows are filed under ``best_p`` too, and one
vectorized pass recomputes exactly those.  The smallest cached minimum,
then the smaller rank, on the cached processor, is the ``(EST, -bottom
level, node, processor)`` order of a scan of the whole table.

Selection keys are total orders evaluated with exact float comparisons, so
the scheduler is tie-for-tie identical to the straight-line reference loop
kept in ``tests/test_list_scheduler_equivalence.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.classical import ClassicalSchedule, classical_to_bsp
from ..model.machine import MEMORY_EPS as _EPS
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..scheduler import Scheduler, SchedulingError

__all__ = ["BlEstScheduler", "EtfScheduler", "list_schedule"]


def _comm_delay_factor(machine: BspMachine) -> float:
    """Per-unit communication delay the list schedulers assume.

    The classical extension uses ``g`` per unit of data; with NUMA effects
    the baselines multiply by the average pairwise coefficient (they have no
    notion of which pair of processors will actually communicate).
    """
    factor = float(machine.g)
    if not machine.is_uniform:
        factor *= machine.average_coefficient()
    return factor


def _no_memory_fit(v: int, need: float, remaining: np.ndarray) -> SchedulingError:
    return SchedulingError(
        f"no processor has {need:g} units of memory left for "
        f"node {v} (remaining: {np.round(remaining, 3).tolist()})"
    )


def list_schedule(
    dag: ComputationalDAG,
    machine: BspMachine,
    policy: str = "bl-est",
    *,
    respect_memory: bool = False,
    prefer_memory_balance: bool = False,
) -> ClassicalSchedule:
    """Run the BL-EST or ETF list-scheduling policy.

    Parameters
    ----------
    policy:
        ``"bl-est"`` or ``"etf"``.
    respect_memory:
        With the machine carrying per-processor memory bounds, only place
        nodes on processors with enough remaining capacity (the
        memory-constrained ``greedy-mem`` variant); raises
        :class:`~repro.scheduler.SchedulingError` when no processor fits.
        Without bounds on the machine this is a no-op, so the variant
        degenerates to the plain baseline.
    prefer_memory_balance:
        Among the memory-feasible processors, prefer the one with the most
        remaining capacity (ties broken by EST) instead of the earliest
        start time.  Only meaningful together with ``respect_memory``.
    """
    if policy not in ("bl-est", "etf"):
        raise ValueError("policy must be 'bl-est' or 'etf'")
    n = dag.n
    P = machine.P

    bounds = machine.memory_bounds if respect_memory else None
    remaining = bounds.astype(np.float64).copy() if bounds is not None else None
    memory = np.asarray(dag.memory, dtype=np.float64)

    # rank[v] is v's place in the (-bottom level, node) order.
    order = np.lexsort((np.arange(n), -dag.bottom_level()))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    order_list = order.tolist()
    rank_list = rank.tolist()
    work = np.asarray(dag.work, dtype=np.float64).tolist()
    cost = (_comm_delay_factor(machine) * np.asarray(dag.comm, dtype=np.float64)).tolist()
    parents = [dag.parents(v) for v in range(n)]
    children = [dag.children(v) for v in range(n)]
    remaining_parents = [len(ps) for ps in parents]
    proc = [0] * n
    start = [0.0] * n
    finish = [0.0] * n
    proc_ready = np.zeros(P, dtype=np.float64)

    def arrival(v: int) -> Tuple[float, int, float]:
        """``(B, q, a)``: ``v``'s inputs reach every processor but ``q`` by
        ``B`` and ``q`` by ``a`` (``q = -1``: all by ``B = 0``)."""
        top = 0.0
        q = -1
        for u in parents[v]:
            b = finish[u] + cost[u]
            if b > top:
                top = b
                q = proc[u]
        a = 0.0
        for u in parents[v]:
            t = finish[u] if proc[u] == q else finish[u] + cost[u]
            if t > a:
                a = t
        return top, q, a

    if policy == "bl-est":
        heap: List[int] = []
        rows: List[Tuple[float, int, float]] = [(0.0, -1, 0.0)] * n

        def push_ready(v: int) -> None:
            rows[v] = arrival(v)
            heappush(heap, rank_list[v])

        def select() -> Tuple[int, int, float]:
            if not heap:
                raise RuntimeError("list scheduler ran out of ready nodes prematurely")
            v = order_list[heappop(heap)]
            top, q, a = rows[v]
            est = np.maximum(proc_ready, top)
            if q >= 0:
                est[q] = max(a, proc_ready[q])
            if remaining is None:
                best_p = int(est.argmin())
            else:
                fit_row = memory[v] <= remaining + _EPS
                if not fit_row.any():
                    raise _no_memory_fit(v, memory[v], remaining)
                if prefer_memory_balance:
                    head = np.where(fit_row, remaining, -np.inf)
                    fit_row = fit_row & (remaining == head.max())
                best_p = int(np.where(fit_row, est, np.inf).argmin())
            return v, best_p, float(est[best_p])

        def refresh() -> None:
            pass

    else:
        # Slot i of `table` holds the arrival row of ready node
        # `slot_node[i]`; `row_min[i]`/`row_arg[i]` cache its EST minimum
        # and first argmin.  Placement swap-removes the slot, so the live
        # block is `table[:nready]`.
        table = np.zeros((n, P), dtype=np.float64)
        slot_node = np.zeros(n, dtype=np.int64)
        slot_rank = np.zeros(n, dtype=np.int64)
        row_min = np.zeros(n, dtype=np.float64)
        row_arg = np.zeros(n, dtype=np.int64)
        nready = 0
        moved = 0  # the column the last placement changed

        def push_ready(v: int) -> None:
            nonlocal nready
            top, q, a = arrival(v)
            table[nready] = top
            if q >= 0:
                table[nready, q] = a
            slot_node[nready] = v
            slot_rank[nready] = rank_list[v]
            row_arg[nready] = moved  # no cached minimum yet: stale
            nready += 1

        def select() -> Tuple[int, int, float]:
            nonlocal nready, moved
            if nready == 0:
                raise RuntimeError("list scheduler ran out of ready nodes prematurely")
            mins = row_min[:nready]
            i = int(np.where(mins == mins.min(), slot_rank[:nready], n).argmin())
            v = int(slot_node[i])
            moved = int(row_arg[i])
            best_t = float(row_min[i])
            nready -= 1
            if i != nready:
                table[i] = table[nready]
                slot_node[i] = slot_node[nready]
                slot_rank[i] = slot_rank[nready]
                row_min[i] = row_min[nready]
                row_arg[i] = row_arg[nready]
            return v, moved, best_t

        def refresh() -> None:
            """Recompute the cached minimum of every row filed under ``moved``."""
            stale = (row_arg[:nready] == moved).nonzero()[0]
            if stale.size == 0:
                return
            est = np.maximum(table[stale], proc_ready)
            if remaining is not None:
                fits = memory[slot_node[stale]][:, None] <= (remaining + _EPS)[None, :]
                est = np.where(fits, est, np.inf)
            row_arg[stale] = est.argmin(axis=1)
            low = est.min(axis=1)
            row_min[stale] = low
            if remaining is not None and low.max() == np.inf:
                bad = int(slot_node[stale][low == np.inf].min())
                raise _no_memory_fit(bad, memory[bad], remaining)

    for v in range(n):
        if remaining_parents[v] == 0:
            push_ready(v)
    refresh()
    for _ in range(n):
        v, best_p, best_t = select()
        proc[v] = best_p
        start[v] = best_t
        finish[v] = best_t + work[v]
        proc_ready[best_p] = finish[v]
        if remaining is not None:
            remaining[best_p] -= memory[v]
        for child in children[v]:
            remaining_parents[child] -= 1
            if remaining_parents[child] == 0:
                push_ready(child)
        refresh()

    return ClassicalSchedule(
        dag, machine, np.array(proc, dtype=np.int64), np.array(start, dtype=np.float64)
    )


class BlEstScheduler(Scheduler):
    """Bottom-Level / Earliest-Start-Time list scheduler."""

    name = "BL-EST"

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        return classical_to_bsp(list_schedule(dag, machine, policy="bl-est"))


class EtfScheduler(Scheduler):
    """Earliest Task First list scheduler."""

    name = "ETF"

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        return classical_to_bsp(list_schedule(dag, machine, policy="etf"))
