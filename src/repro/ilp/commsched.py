"""ILPcs: ILP for the communication scheduling subproblem (paper 4.4).

With the node assignment (pi, tau) fixed, the remaining freedom is the
superstep in which each required cross-processor transfer is performed.
Each transfer of a value ``u`` to a processor ``q`` may happen in any
communication phase between ``tau(u)`` and one phase before its first
consumer on ``q``; the ILP chooses the phases so that the sum of h-relation
costs is minimized.  Like the paper's formulation (and HCcs), values are
always sent directly from the processor that computed them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..model.comm import CommSchedule
from ..model.schedule import BspSchedule
from .model import IlpModel
from .solver import solve

__all__ = ["solve_comm_schedule_ilp"]


def solve_comm_schedule_ilp(
    schedule: BspSchedule,
    *,
    time_limit: Optional[float] = None,
) -> Optional[BspSchedule]:
    """Optimize Gamma for a fixed (pi, tau); returns ``None`` if no solution.

    The returned schedule carries an explicit, optimized communication
    schedule; its (pi, tau) assignment is unchanged.
    """
    machine = schedule.machine
    dag = schedule.dag
    P = machine.P
    g = float(machine.g)
    numa = machine.numa
    S = schedule.num_supersteps

    transfers = schedule.required_transfers()
    if not transfers:
        # Nothing to optimize: attach an (empty) explicit schedule.
        out = schedule.copy()
        out.comm = CommSchedule()
        return out

    model = IlpModel(name="ILPcs")
    x: Dict[Tuple[int, int, int], int] = {}
    windows: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for (u, q), first_need in transfers.items():
        lo = int(schedule.step[u])
        hi = first_need - 1
        windows[(u, q)] = (lo, hi)
        for s in range(lo, hi + 1):
            x[(u, q, s)] = model.add_binary(f"x[{u},{q},{s}]")

    h_var = {s: model.add_continuous(f"H[{s}]") for s in range(S)}

    # Every transfer happens exactly once inside its window.
    for (u, q), (lo, hi) in windows.items():
        model.add_eq({x[(u, q, s)]: 1.0 for s in range(lo, hi + 1)}, 1.0, name=f"once[{u},{q}]")

    # h-relation bounds per superstep and processor (send and receive).
    for s in range(S):
        send: Dict[int, Dict[int, float]] = {p: {} for p in range(P)}
        recv: Dict[int, Dict[int, float]] = {p: {} for p in range(P)}
        for (u, q), (lo, hi) in windows.items():
            if not (lo <= s <= hi):
                continue
            p_from = int(schedule.proc[u])
            vol = float(dag.comm[u]) * float(numa[p_from, q])
            send[p_from][x[(u, q, s)]] = send[p_from].get(x[(u, q, s)], 0.0) + vol
            recv[q][x[(u, q, s)]] = recv[q].get(x[(u, q, s)], 0.0) + vol
        for p in range(P):
            if send[p]:
                coeffs = dict(send[p])
                coeffs[h_var[s]] = -1.0
                model.add_le(coeffs, 0.0, name=f"send[{s},{p}]")
            if recv[p]:
                coeffs = dict(recv[p])
                coeffs[h_var[s]] = -1.0
                model.add_le(coeffs, 0.0, name=f"recv[{s},{p}]")

    for s in range(S):
        model.add_objective_term(h_var[s], g)

    result = solve(model, time_limit=time_limit)
    if not result.has_solution:
        return None

    comm = CommSchedule()
    for (u, q, s), idx in x.items():
        if result.binary_value(idx):
            comm.add(u, int(schedule.proc[u]), q, s)
    out = schedule.copy()
    out.comm = comm
    return out

