"""Reusable incremental superstep-matrix cost engine.

Every local search in this package maintains the same redundant state: the
``(S, P)`` per-superstep work / send / receive matrices, the per-superstep
cost vector derived from them through
:func:`repro.model.cost.superstep_row_costs`, and the running total.  This
module owns that state once, so that applying a move is a constant-size
delta instead of a superstep-matrix rebuild.  There is one mutation path:
the caller writes the changed cells into :attr:`IncrementalCostEngine.mats`
and then calls :meth:`IncrementalCostEngine.refresh_rows` with the touched
superstep rows.

The three matrices are stored stacked in one ``(3, S, P)`` tensor
(indexed by :data:`WORK` / :data:`SEND` / :data:`RECV`), so that the probe
hot path reads the affected rows of all three with a single fancy index and
re-costs them with the fused kernel
:func:`repro.model.cost.superstep_block_costs` — bitwise the same result as
three separate reads plus :func:`~repro.model.cost.superstep_row_costs`, at
a third of the numpy call overhead.

:class:`~repro.localsearch.state.LocalSearchState` (used by hill climbing
and simulated annealing) and
:class:`~repro.localsearch.comm_hill_climbing.CommScheduleState` both sit on
this engine; the cost formula itself stays in :mod:`repro.model.cost`, the
single source of truth.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..model.cost import superstep_block_costs

__all__ = ["IncrementalCostEngine", "WORK", "SEND", "RECV"]

#: Indices of the work / send / receive matrices in the stacked ``mats``.
WORK, SEND, RECV = 0, 1, 2


class IncrementalCostEngine:
    """Incremental BSP cost bookkeeping over ``(S, P)`` superstep matrices.

    Parameters
    ----------
    work / send / recv:
        Initial ``(S, P)`` matrices (copied into the stacked tensor).
    g / l:
        BSP machine parameters of the cost formula
        ``C(s) = max_p work + g * h + l * occurs``.
    slack:
        Spare all-zero superstep rows appended up front so that growth into
        a new superstep does not immediately reallocate.
    """

    _SLACK = 4

    def __init__(
        self,
        work: np.ndarray,
        send: np.ndarray,
        recv: np.ndarray,
        g: float,
        l: float,
        *,
        slack: Optional[int] = None,
    ) -> None:
        if slack is None:
            slack = self._SLACK
        rows, P = work.shape
        self.P = int(P)
        self.S = rows + slack
        self.g = float(g)
        self.l = float(l)
        self.mats = np.zeros((3, self.S, self.P))
        self.mats[WORK, :rows] = work
        self.mats[SEND, :rows] = send
        self.mats[RECV, :rows] = recv
        self.step_cost = superstep_block_costs(self.mats, self.g, self.l)
        #: Python-list mirror of :attr:`step_cost`, kept in sync by
        #: :meth:`refresh_rows` — scalar reads on the probe path are ~10x
        #: cheaper on a list than on the array.
        self.step_cost_list: List[float] = self.step_cost.tolist()
        self.total_cost = float(self.step_cost.sum())
        #: Number of :meth:`refresh_rows` calls, i.e. of applied moves — the
        #: "engine transaction" figure of convergence telemetry spans.
        self.transactions: int = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def work(self) -> np.ndarray:
        """The ``(S, P)`` work matrix (a view into :attr:`mats`)."""
        return self.mats[WORK]

    @property
    def send(self) -> np.ndarray:
        """The ``(S, P)`` send matrix (a view into :attr:`mats`)."""
        return self.mats[SEND]

    @property
    def recv(self) -> np.ndarray:
        """The ``(S, P)`` receive matrix (a view into :attr:`mats`)."""
        return self.mats[RECV]

    # ------------------------------------------------------------------
    # Capacity and refresh
    # ------------------------------------------------------------------
    def ensure_capacity(self, step: int) -> None:
        """Grow the matrices so that superstep row ``step`` exists."""
        if step < self.S:
            return
        extra = step - self.S + 1 + self._SLACK
        self.mats = np.concatenate(
            [self.mats, np.zeros((3, extra, self.P))], axis=1
        )
        self.step_cost = np.concatenate([self.step_cost, np.zeros(extra)])
        self.step_cost_list.extend([0.0] * extra)
        self.S += extra

    def refresh_rows(self, rows: Iterable[int]) -> None:
        """Recompute the cost of the given superstep rows and the total.

        Call once per applied move, after writing its cells into
        :attr:`mats`.  Out-of-range rows are ignored so callers can pass raw
        ``step - 1`` / ``step + 1`` candidates without clamping.
        """
        self.transactions += 1
        idx = np.unique(np.fromiter(rows, dtype=np.int64))
        idx = idx[(idx >= 0) & (idx < self.S)]
        if idx.size == 0:
            return
        new = superstep_block_costs(self.mats[:, idx], self.g, self.l)
        self.total_cost += float(new.sum() - self.step_cost[idx].sum())
        self.step_cost[idx] = new
        mirror = self.step_cost_list
        for r, c in zip(idx.tolist(), new.tolist()):
            mirror[r] = c

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    def recompute_total(self) -> float:
        """Total cost recomputed from the matrices (testing / debugging aid)."""
        return float(superstep_block_costs(self.mats, self.g, self.l).sum())
