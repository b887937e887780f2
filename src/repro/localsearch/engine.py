"""Reusable incremental superstep-matrix cost engine.

Every local search in this package maintains the same redundant state: the
per-superstep work / send / receive matrices, the per-superstep cost vector
derived from them through :func:`repro.model.cost.superstep_block_costs`,
and the running total.  This module owns that state once, so that applying
a move is a constant-size delta instead of a superstep-matrix rebuild.
There is one mutation path: the caller writes the changed cells into
:attr:`IncrementalCostEngine.mats` and then calls
:meth:`IncrementalCostEngine.refresh_rows` with the touched superstep rows.

The three matrices are stored stacked and rows-last in one ``(3, P, S)``
tensor (indexed by :data:`WORK` / :data:`SEND` / :data:`RECV`, then
processor, then superstep), so that the probe hot path reads the affected
superstep rows of all three with a single ``np.take(..., axis=2)`` and
re-costs them with the fused kernel
:func:`repro.model.cost.superstep_block_costs`, whose reductions over the
short processor axis then run elementwise along the long, contiguous
superstep axis.  The result is bitwise that of three separate reads plus
:func:`~repro.model.cost.superstep_row_costs`.  The :attr:`work` /
:attr:`send` / :attr:`recv` properties present the familiar ``(S, P)``
matrices as transposed views.

:class:`~repro.localsearch.state.LocalSearchState` (used by hill climbing
and simulated annealing) and
:class:`~repro.localsearch.comm_hill_climbing.CommScheduleState` both sit on
this engine; the cost formula itself stays in :mod:`repro.model.cost`, the
single source of truth.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..model.cost import superstep_block_costs

__all__ = ["IncrementalCostEngine", "WORK", "SEND", "RECV"]

#: Indices of the work / send / receive matrices in the stacked ``mats``.
WORK, SEND, RECV = 0, 1, 2


class IncrementalCostEngine:
    """Incremental BSP cost bookkeeping over per-superstep matrices.

    Parameters
    ----------
    work / send / recv:
        Initial ``(S, P)`` matrices (copied, transposed, into the stacked
        ``(3, P, S)`` tensor :attr:`mats`).
    g / l:
        BSP machine parameters of the cost formula
        ``C(s) = max_p work + g * h + l * occurs``.
    """

    #: Spare all-zero superstep rows appended at construction and on every
    #: growth, so that a move into a new superstep does not reallocate.
    _SLACK = 4

    def __init__(
        self,
        work: np.ndarray,
        send: np.ndarray,
        recv: np.ndarray,
        g: float,
        l: float,
    ) -> None:
        rows, P = work.shape
        self.P = int(P)
        self.S = rows + self._SLACK
        self.g = float(g)
        self.l = float(l)
        self.mats = np.zeros((3, self.P, self.S))
        self.mats[WORK, :, :rows] = work.T
        self.mats[SEND, :, :rows] = send.T
        self.mats[RECV, :, :rows] = recv.T
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
        """The ``(S, P)`` work matrix (a transposed view into :attr:`mats`)."""
        return self.mats[WORK].T

    @property
    def send(self) -> np.ndarray:
        """The ``(S, P)`` send matrix (a transposed view into :attr:`mats`)."""
        return self.mats[SEND].T

    @property
    def recv(self) -> np.ndarray:
        """The ``(S, P)`` receive matrix (a transposed view into :attr:`mats`)."""
        return self.mats[RECV].T

    # ------------------------------------------------------------------
    # Capacity and refresh
    # ------------------------------------------------------------------
    def ensure_capacity(self, step: int) -> None:
        """Grow the matrices so that superstep row ``step`` exists."""
        if step < self.S:
            return
        extra = step - self.S + 1 + self._SLACK
        self.mats = np.concatenate(
            [self.mats, np.zeros((3, self.P, extra))], axis=2
        )
        self.step_cost = np.concatenate([self.step_cost, np.zeros(extra)])
        self.step_cost_list.extend([0.0] * extra)
        self.S += extra

    def refresh_rows(self, rows: Iterable[int]) -> np.ndarray:
        """Recompute the cost of the given superstep rows and the total.

        Call once per applied move, after writing its cells into
        :attr:`mats`.  Out-of-range rows are ignored so callers can pass raw
        ``step - 1`` / ``step + 1`` candidates without clamping.  Returns
        the rows refreshed: sorted, unique and within range.
        """
        self.transactions += 1
        idx = np.unique(np.fromiter(rows, dtype=np.int64))
        idx = idx[(idx >= 0) & (idx < self.S)]
        if idx.size == 0:
            return idx
        new = superstep_block_costs(self.mats[:, :, idx], self.g, self.l)
        self.total_cost += float(new.sum() - self.step_cost[idx].sum())
        self.step_cost[idx] = new
        mirror = self.step_cost_list
        for r, c in zip(idx.tolist(), new.tolist()):
            mirror[r] = c
        return idx

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    def recompute_total(self) -> float:
        """Total cost recomputed from the matrices (testing / debugging aid)."""
        return float(superstep_block_costs(self.mats, self.g, self.l).sum())
