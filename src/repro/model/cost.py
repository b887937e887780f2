"""Cost evaluation in the NUMA-extended BSP model (paper Section 3.3 / 3.4).

The cost of a superstep ``s`` is

    C(s) = C_work(s) + g * C_comm(s) + l

where

* ``C_work(s)`` is the maximum total work weight assigned to any processor in
  the computation phase of ``s``,
* ``C_comm(s)`` is the h-relation cost: the maximum, over processors, of the
  amount of data sent or received by that processor in the communication
  phase of ``s`` — with every unit of data from ``p1`` to ``p2`` weighted by
  the NUMA coefficient ``lambda[p1, p2]``,
* ``l`` is the fixed latency charged for every superstep that occurs.

The total cost of a schedule is the sum of ``C(s)`` over all supersteps that
occur (i.e. supersteps with at least some computation or communication).
This module is the single source of truth for the cost formula; every
scheduler and every experiment compares schedules through :func:`evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import BspSchedule

__all__ = [
    "CostBreakdown",
    "evaluate",
    "superstep_matrices",
    "superstep_row_costs",
    "superstep_block_costs",
    "superstep_occurs",
]

#: Tolerance below which a superstep's total activity counts as "empty"
#: (guards against float residue left behind by incremental +=/-= updates).
OCCUPANCY_TOL = 1e-12


@dataclass(frozen=True)
class CostBreakdown:
    """Per-superstep decomposition of a schedule's cost.

    Attributes
    ----------
    total:
        Total schedule cost (work + g * comm + latency summed over supersteps).
    work_cost:
        Sum over supersteps of the maximum per-processor work.
    comm_cost:
        Sum over supersteps of ``g`` times the h-relation cost.
    latency_cost:
        ``l`` times the number of supersteps that occur.
    num_supersteps:
        Number of supersteps that occur (non-empty in work or communication).
    work_per_step:
        Array of per-superstep work costs (max over processors).
    comm_per_step:
        Array of per-superstep h-relation costs (already NUMA weighted, not
        yet multiplied by ``g``).
    work_matrix:
        ``(S, P)`` matrix of total work per superstep and processor.
    send_matrix / recv_matrix:
        ``(S, P)`` matrices of NUMA-weighted data sent / received.
    """

    total: float
    work_cost: float
    comm_cost: float
    latency_cost: float
    num_supersteps: int
    work_per_step: np.ndarray
    comm_per_step: np.ndarray
    work_matrix: np.ndarray
    send_matrix: np.ndarray
    recv_matrix: np.ndarray


def superstep_matrices(schedule: BspSchedule):
    """Compute the raw ``(S, P)`` work / send / receive matrices of a schedule.

    ``S`` is the number of superstep *indices* spanned (``max index + 1``);
    empty supersteps simply have all-zero rows.  Communication is taken from
    the schedule's effective Gamma (explicit if attached, lazy otherwise).
    """
    dag = schedule.dag
    machine = schedule.machine
    P = machine.P
    S = schedule.num_supersteps
    work = np.zeros((max(S, 1), P), dtype=np.float64)
    send = np.zeros((max(S, 1), P), dtype=np.float64)
    recv = np.zeros((max(S, 1), P), dtype=np.float64)
    if dag.n == 0:
        return work[:0], send[:0], recv[:0]

    np.add.at(work, (schedule.step, schedule.proc), dag.work.astype(np.float64))

    if schedule.comm is None:
        # Already in sorted-entry order and free of p1 == p2 entries, so the
        # scatter below accumulates exactly as for the materialized set.
        ev, p1, p2, es = schedule.lazy_transfers()
    else:
        entries = np.array(sorted(schedule.comm.entries), dtype=np.int64).reshape(-1, 4)
        keep = entries[:, 1] != entries[:, 2]
        ev, p1, p2, es = (entries[keep, k] for k in range(4))
    volume = dag.comm[ev].astype(np.float64) * machine.numa[p1, p2]
    np.add.at(send, (es, p1), volume)
    np.add.at(recv, (es, p2), volume)
    return work[:S], send[:S], recv[:S]


def superstep_occurs(work: np.ndarray, send: np.ndarray, recv: np.ndarray) -> np.ndarray:
    """Which rows of ``(k, P)`` blocks occur (and are charged the latency).

    A superstep occurs when its work, send or receive total exceeds
    :data:`OCCUPANCY_TOL`; every cost in this module and the timeline
    simulator use this rule.
    """
    tol = OCCUPANCY_TOL
    return (work.sum(axis=1) > tol) | (send.sum(axis=1) > tol) | (recv.sum(axis=1) > tol)


def _row_terms(work: np.ndarray, send: np.ndarray, recv: np.ndarray):
    """Per-row ``(max work, h-relation, occurs)`` of ``(k, P)`` blocks."""
    w = work.max(axis=1)
    h = np.maximum(send.max(axis=1), recv.max(axis=1))
    return w, h, superstep_occurs(work, send, recv)


def superstep_row_costs(
    work: np.ndarray,
    send: np.ndarray,
    recv: np.ndarray,
    g: float,
    l: float,
) -> np.ndarray:
    """Per-superstep costs ``C(s) = w(s) + g * h(s) + l * occurs(s)``.

    ``work``/``send``/``recv`` are ``(k, P)`` blocks of superstep rows (any
    subset of rows, not necessarily the full schedule).  This is the
    reference form of the kernel: :func:`superstep_block_costs`, which the
    incremental local-search engine runs, must match it bit for bit.
    """
    if work.size == 0:
        return np.zeros(work.shape[0], dtype=np.float64)
    w, h, occurs = _row_terms(work, send, recv)
    return w + float(g) * h + float(l) * occurs


def superstep_block_costs(blocks: np.ndarray, g: float, l: float) -> np.ndarray:
    """Per-superstep costs of a stacked ``(3, P, k)`` work/send/recv block.

    The block is rows-last: ``blocks[0, :, r]`` is the work column of the
    ``r``-th superstep row (``blocks[1]`` send, ``blocks[2]`` receive).
    Identical (bitwise) to ``superstep_row_costs(blocks[0].T, blocks[1].T,
    blocks[2].T, g, l)``, but with the reductions fused across the three
    matrices — one max, one sum and one comparison instead of three of each
    — and running over axis 1, so that each is an elementwise pass along the
    long superstep axis rather than a reduction of many short processor
    rows.  That matters on the local-search probe path, where the blocks
    hold few processors and per-call overhead dominates.
    """
    if blocks.size == 0:
        return np.zeros(blocks.shape[2], dtype=np.float64)
    mx = blocks.max(axis=1)
    occurs = (blocks.sum(axis=1) > OCCUPANCY_TOL).any(axis=0)
    return mx[0] + float(g) * np.maximum(mx[1], mx[2]) + float(l) * occurs


def evaluate(schedule: BspSchedule) -> CostBreakdown:
    """Evaluate the total BSP+NUMA cost of a schedule.

    The schedule does not have to be valid; validity is checked separately by
    :meth:`BspSchedule.validate`.  Latency is charged once per superstep
    whose activity exceeds :data:`OCCUPANCY_TOL`, as in the local-search
    engine's :func:`superstep_block_costs`.
    """
    machine = schedule.machine
    work, send, recv = superstep_matrices(schedule)
    S = work.shape[0]
    if S == 0:
        empty = np.zeros(0)
        return CostBreakdown(0.0, 0.0, 0.0, 0.0, 0, empty, empty, work, send, recv)

    work_per_step, comm_per_step, occurs = _row_terms(work, send, recv)
    num_occurring = int(np.count_nonzero(occurs))

    work_cost = float(work_per_step.sum())
    comm_cost = float(machine.g) * float(comm_per_step.sum())
    latency_cost = float(machine.l) * num_occurring
    total = work_cost + comm_cost + latency_cost
    return CostBreakdown(
        total=total,
        work_cost=work_cost,
        comm_cost=comm_cost,
        latency_cost=latency_cost,
        num_supersteps=num_occurring,
        work_per_step=work_per_step,
        comm_per_step=comm_per_step,
        work_matrix=work,
        send_matrix=send,
        recv_matrix=recv,
    )
