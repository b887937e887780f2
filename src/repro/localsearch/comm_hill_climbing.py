"""HCcs: hill climbing on the communication schedule (paper Section 4.3).

With the node assignment (pi, tau) fixed, the only remaining freedom is
*when* each required cross-processor value transfer happens.  Every required
transfer of a value ``u`` to a processor ``q`` may be scheduled in any
communication phase between ``tau(u)`` (the superstep in which the value is
produced) and ``first_need - 1`` (the last phase before the first consumer
on ``q`` runs); HCcs moves one transfer at a time to a different phase in
that window whenever this lowers the total h-relation cost.

Like the paper's implementation, transfers are always sent directly from the
producing processor (no relaying through third processors).

The h-relation state sits on the shared
:class:`~repro.localsearch.engine.IncrementalCostEngine` (with ``g = 1`` and
``l = 0`` the engine's per-superstep cost *is* the h-relation of that
superstep, bit for bit), and the whole window of a transfer is probed in one
vectorized shot (:meth:`CommScheduleState.probe_window`): a transfer adds
volume to exactly one send and one receive cell, so the h-relation of a
candidate phase is ``max(h(s), send[s, p] + vol, recv[s, q] + vol)`` —
no matrix mutation, no apply/revert round trip.  Only an improving move is
written into the matrices (:meth:`CommScheduleState.move`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..model.comm import CommSchedule
from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from .engine import RECV, SEND, IncrementalCostEngine

__all__ = ["CommScheduleState", "CommHillClimbingResult", "comm_hill_climb"]

_EPS = 1e-9

#: Budget checks between ``time.monotonic()`` reads (see hill_climbing).
_CLOCK_STRIDE = 64


class CommScheduleState:
    """Incremental h-relation cost state for the communication subproblem.

    Like :class:`~repro.localsearch.state.LocalSearchState`, the state lives
    in flat numpy ``(S, P)`` send / receive matrices with a per-superstep
    cost vector on top — all owned by a shared
    :class:`~repro.localsearch.engine.IncrementalCostEngine` whose ``g = 1``
    / ``l = 0`` parameters make its per-row cost exactly the h-relation.
    """

    def __init__(self, schedule: BspSchedule) -> None:
        self.schedule = schedule
        self.dag = schedule.dag
        self.machine = schedule.machine
        self.P = self.machine.P
        self.g = float(self.machine.g)
        self.numa = self.machine.numa
        self._numa_list = np.asarray(self.numa, dtype=np.float64).tolist()
        self._comm_list = np.asarray(self.dag.comm, dtype=np.float64).tolist()
        self._proc_list = np.asarray(schedule.proc, dtype=np.int64).tolist()
        self.S = schedule.num_supersteps

        # Required transfers with their allowed window [tau(u), first_need - 1].
        self.transfers: List[Tuple[int, int]] = []  # (node u, target processor q)
        self.window: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for (u, q), first_need in schedule.required_transfers().items():
            lo = int(schedule.step[u])
            hi = first_need - 1
            self.transfers.append((u, q))
            self.window[(u, q)] = (lo, hi)

        # Current phase of every transfer: start from the schedule's explicit
        # Gamma when available (keeping only direct sends), otherwise lazy.
        self.current: Dict[Tuple[int, int], int] = {}
        explicit = schedule.comm
        if explicit is not None:
            direct: Dict[Tuple[int, int], int] = {}
            for (v, p1, p2, s) in explicit:
                if p1 == self._proc_list[v] and p2 != p1:
                    key = (v, p2)
                    if key in self.window and self.window[key][0] <= s <= self.window[key][1]:
                        direct[key] = min(s, direct.get(key, s))
            for key in self.transfers:
                lo, hi = self.window[key]
                self.current[key] = direct.get(key, hi)
        else:
            for key in self.transfers:
                self.current[key] = self.window[key][1]

        rows = max(self.S, 1)
        send = np.zeros((rows, self.P), dtype=np.float64)
        recv = np.zeros((rows, self.P), dtype=np.float64)
        if self.current:
            u_arr = np.fromiter((k[0] for k in self.current), dtype=np.int64, count=len(self.current))
            q_arr = np.fromiter((k[1] for k in self.current), dtype=np.int64, count=len(self.current))
            s_arr = np.fromiter(self.current.values(), dtype=np.int64, count=len(self.current))
            p_from = np.asarray(schedule.proc)[u_arr]
            volumes = self.dag.comm[u_arr].astype(np.float64) * self.numa[p_from, q_arr]
            np.add.at(send, (s_arr, p_from), volumes)
            np.add.at(recv, (s_arr, q_arr), volumes)
        self.engine = IncrementalCostEngine(
            np.zeros((rows, self.P), dtype=np.float64), send, recv, 1.0, 0.0
        )

    # ------------------------------------------------------------------
    @property
    def send(self) -> np.ndarray:
        return self.engine.send

    @property
    def recv(self) -> np.ndarray:
        return self.engine.recv

    @property
    def step_comm(self) -> np.ndarray:
        """Per-superstep h-relation (the engine's cost rows, ``g=1, l=0``)."""
        return self.engine.step_cost

    @property
    def comm_total(self) -> float:
        return self.engine.total_cost

    def _volume(self, u: int, q: int) -> float:
        p_from = self._proc_list[u]
        return self._comm_list[u] * self._numa_list[p_from][q]

    def move(self, u: int, q: int, new_step: int) -> float:
        """Reschedule the transfer ``u -> q`` to ``new_step``; return new h-cost sum."""
        old = self.current[(u, q)]
        if new_step == old:
            return self.engine.total_cost
        p_from = self._proc_list[u]
        volume = self._volume(u, q)
        self.current[(u, q)] = new_step
        engine = self.engine
        mats = engine.mats
        mats[SEND, p_from, old] -= volume
        mats[RECV, q, old] -= volume
        mats[SEND, p_from, new_step] += volume
        mats[RECV, q, new_step] += volume
        engine.refresh_rows((old, new_step))
        return engine.total_cost

    def probe_window(self, u: int, q: int) -> np.ndarray:
        """Total h-cost if ``u -> q`` moved to each phase of its window.

        Returns the cost vector aligned with ``range(lo, hi + 1)``; the
        entry of the transfer's current phase equals the current total.  The
        state is not touched: removing the transfer affects one superstep
        row (re-scanned once), and adding it to a candidate phase raises
        that phase's h-relation to at most
        ``max(h(s), send[s, p_from] + vol, recv[s, q] + vol)`` — exact,
        because a single cell changes per matrix.
        """
        lo, hi = self.window[(u, q)]
        c = self.current[(u, q)]
        p_from = self._proc_list[u]
        volume = self._volume(u, q)
        engine = self.engine
        send, recv = engine.send, engine.recv
        sc = engine.step_cost

        srow = send[c].copy()
        srow[p_from] -= volume
        rrow = recv[c].copy()
        rrow[q] -= volume
        h_removed = max(float(srow.max()), float(rrow.max()))

        block = slice(lo, hi + 1)
        h_new = np.maximum(
            sc[block], np.maximum(send[block, p_from] + volume, recv[block, q] + volume)
        )
        costs = (engine.total_cost - float(sc[c]) + h_removed) + (h_new - sc[block])
        costs[c - lo] = engine.total_cost
        return costs

    def total_comm_cost(self) -> float:
        """Sum over supersteps of the h-relation cost (not yet times ``g``)."""
        return self.engine.total_cost

    def to_comm_schedule(self) -> CommSchedule:
        comm = CommSchedule()
        for (u, q), s in self.current.items():
            comm.add(u, int(self.schedule.proc[u]), q, s)
        return comm


@dataclass
class CommHillClimbingResult:
    """Outcome of a communication-schedule hill-climbing run."""

    schedule: BspSchedule
    initial_cost: float
    final_cost: float
    moves_applied: int
    reached_local_optimum: bool


def comm_hill_climb(
    schedule: BspSchedule,
    *,
    max_moves: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> CommHillClimbingResult:
    """Optimize the communication schedule of a fixed (pi, tau) assignment."""
    with _trace.span("comm_hill_climb", nodes=schedule.dag.n) as tspan:
        return _comm_hill_climb(
            schedule, max_moves=max_moves, time_limit=time_limit, tspan=tspan
        )


def _comm_hill_climb(
    schedule: BspSchedule,
    *,
    max_moves: Optional[int],
    time_limit: Optional[float],
    tspan: "_trace.SpanLike",
) -> CommHillClimbingResult:
    initial_cost = float(schedule.cost())
    state = CommScheduleState(schedule)
    start = time.monotonic()
    moves_applied = 0
    budget_calls = 0
    timed_out = False

    def out_of_budget() -> bool:
        nonlocal budget_calls, timed_out
        if max_moves is not None and moves_applied >= max_moves:
            return True
        if time_limit is not None:
            if timed_out:
                return True
            budget_calls += 1
            if budget_calls % _CLOCK_STRIDE == 1:
                timed_out = time.monotonic() - start > time_limit
                return timed_out
        return False

    improved_any = True
    passes = 0
    while improved_any and not out_of_budget():
        improved_any = False
        passes += 1
        for (u, q) in state.transfers:
            if out_of_budget():
                break
            lo, hi = state.window[(u, q)]
            if lo >= hi:
                continue
            current_step = state.current[(u, q)]
            current_cost = state.comm_total
            costs = state.probe_window(u, q)
            for i in range(hi - lo + 1):
                s = lo + i
                if s == current_step:
                    continue
                if costs[i] < current_cost - _EPS:
                    state.move(u, q, s)
                    moves_applied += 1
                    improved_any = True
                    break
        if _trace.enabled():
            # Convergence telemetry: the per-pass h-relation sum (g=1, l=0
            # engine total) and the applied-move tally.  Read-only.
            tspan.event(
                "pass", index=passes, h_cost=float(state.comm_total), moves=moves_applied
            )

    out = schedule.copy()
    out.comm = state.to_comm_schedule()
    result = CommHillClimbingResult(
        schedule=out,
        initial_cost=initial_cost,
        final_cost=float(out.cost()),
        moves_applied=moves_applied,
        reached_local_optimum=not improved_any,
    )
    if _trace.enabled():
        tspan.annotate(
            initial_cost=result.initial_cost,
            final_cost=result.final_cost,
            moves=moves_applied,
            passes=passes,
            engine_transactions=state.engine.transactions,
        )
    return result

