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

The EST inner loop is batched: a ready node's per-processor *arrival* vector
(the EST contribution of its predecessors) is fixed the moment the node
becomes ready — every predecessor is already placed — so it is computed once
and stored in a dense ``(ready, P)`` pool, and each iteration's full EST
table is a single ``np.maximum(arrival_pool, proc_ready)`` instead of
``|ready| * P`` python-level predecessor scans.  Selection keys are total
orders evaluated with exact float comparisons, so the vectorized scheduler
is tie-for-tie identical to the straight-line reference loop kept in
``tests/test_list_scheduler_equivalence.py``.
"""

from __future__ import annotations

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
    proc = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.float64)
    if n == 0:
        return ClassicalSchedule(dag, machine, proc, start)

    bounds = machine.memory_bounds if respect_memory else None
    remaining = bounds.astype(np.float64).copy() if bounds is not None else None
    memory = np.asarray(dag.memory, dtype=np.float64)

    delay = _comm_delay_factor(machine)
    bottom = dag.bottom_level()
    finish = np.zeros(n, dtype=np.float64)
    proc_ready = np.zeros(P, dtype=np.float64)
    remaining_parents = np.diff(dag.pred_indptr).copy()
    comm = np.asarray(dag.comm, dtype=np.float64)
    work = np.asarray(dag.work, dtype=np.float64)

    # Ready pool: slot i of `arrival` holds the per-processor arrival vector
    # of ready node `slot_node[i]` — max over its (already placed) parents of
    # finish (same processor) / finish + delay * comm (cross-processor).
    # Placement swap-removes the slot, so the live block is `arrival[:nready]`.
    arrival = np.zeros((n, P), dtype=np.float64)
    slot_node = np.zeros(n, dtype=np.int64)
    nready = 0

    def push_ready(v: int) -> None:
        nonlocal nready
        parents = dag.predecessors_array(v)
        row = arrival[nready]
        if parents.size == 0:
            row[:] = 0.0
        else:
            f = finish[parents]
            base = f + delay * comm[parents]
            row[:] = base.max()
            pp = proc[parents]
            # A processor hosting parents gets their bare finish times; the
            # cross-processor max must then exclude those parents' base terms.
            for p in sorted(set(pp.tolist())):
                on = pp == p
                m = float(f[on].max())
                off = base[~on]
                if off.size:
                    m = max(m, float(off.max()))
                row[p] = m
        slot_node[nready] = v
        nready += 1

    def pop_ready(i: int) -> None:
        nonlocal nready
        last = nready - 1
        if i != last:
            arrival[i] = arrival[last]
            slot_node[i] = slot_node[last]
        nready -= 1

    for v in np.nonzero(remaining_parents == 0)[0].tolist():
        push_ready(v)

    for _ in range(n):
        if nready == 0:
            raise RuntimeError("list scheduler ran out of ready nodes prematurely")
        nodes = slot_node[:nready]
        if policy == "bl-est":
            # Highest bottom level first; break ties by node id for determinism.
            b = bottom[nodes]
            tie = np.nonzero(b == b.max())[0]
            i = int(tie[np.argmin(nodes[tie])])
            v = int(slot_node[i])
            row = np.maximum(arrival[i], proc_ready)
            if remaining is None:
                best_p = int(np.argmin(row))
            else:
                fit_row = memory[v] <= remaining + _EPS
                if not fit_row.any():
                    raise _no_memory_fit(v, memory[v], remaining)
                if prefer_memory_balance:
                    head = np.where(fit_row, remaining, -np.inf)
                    fit_row = fit_row & (remaining == head.max())
                best_p = int(np.argmin(np.where(fit_row, row, np.inf)))
            best_t = float(row[best_p])
        else:  # ETF: smallest (EST, -bottom level, node, processor) pair.
            table = np.maximum(arrival[:nready], proc_ready)
            if remaining is not None:
                fits = memory[nodes][:, None] <= (remaining + _EPS)[None, :]
                lacking = ~fits.any(axis=1)
                if lacking.any():
                    bad = int(nodes[lacking].min())
                    raise _no_memory_fit(bad, memory[bad], remaining)
                table = np.where(fits, table, np.inf)
            best_t = float(table.min())
            rs, ps = np.nonzero(table == best_t)
            if rs.size > 1:
                bb = bottom[slot_node[rs]]
                keep = bb == bb.max()
                rs, ps = rs[keep], ps[keep]
            if rs.size > 1:
                nn = slot_node[rs]
                keep = nn == nn.min()
                rs, ps = rs[keep], ps[keep]
            j = int(np.argmin(ps))
            i = int(rs[j])
            best_p = int(ps[j])
            v = int(slot_node[i])
        pop_ready(i)
        proc[v] = best_p
        start[v] = best_t
        finish[v] = best_t + float(work[v])
        proc_ready[best_p] = finish[v]
        if remaining is not None:
            remaining[best_p] -= memory[v]
        for child in dag.children(v):
            remaining_parents[child] -= 1
            if remaining_parents[child] == 0:
                push_ready(child)

    return ClassicalSchedule(dag, machine, proc, start)


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
