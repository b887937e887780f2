"""Incremental cost state for the hill-climbing local search.

The paper's HC algorithm (Section 4.3, Appendix A.3) relies on data
structures that allow the cost change of a candidate move to be evaluated
without recomputing the whole schedule cost.  This module provides that
state for schedules with a *lazy* communication schedule, kept entirely in
flat numpy arrays (the Dask-scheduler idiom: redundant, constant-time
structures owned by one kernel layer):

* the work / send / receive matrices (stored rows-last as one ``(3, P, S)``
  tensor) and their per-superstep costs, owned by the shared
  :class:`~repro.localsearch.engine.IncrementalCostEngine`; they are built
  by :func:`repro.model.cost.superstep_matrices` and costed by
  :func:`repro.model.cost.superstep_block_costs`, so the cost formula stays
  in :mod:`repro.model.cost`,
* dense ``(n, P)`` tables ``succ_min`` / ``succ_min_cnt`` / ``succ_cnt``
  holding, for every node ``u`` and processor ``p``, the earliest superstep
  of a successor of ``u`` on ``p``, how many successors sit at that earliest
  step and how many successors are on ``p`` in total — which is exactly the
  information needed to maintain the (lazy) communication step of every
  transfer ``u -> p`` in O(1) per move (with an occasional CSR rescan when
  the minimum disappears),
* dense ``(n, P)`` step-bound tables ``lo`` / ``hi`` giving, for every node
  and target processor, the window of supersteps the node may legally move
  to.  They are built in one vectorized pass over the CSR edge arrays and
  patched lazily for the few nodes whose neighbourhood an applied move
  touched, so per-node candidate generation never rescans adjacency in
  Python.

Moves are applied with :meth:`LocalSearchState.apply_move`; candidate moves
are probed with :meth:`LocalSearchState.move_delta`, which computes the cost
change and leaves the state unchanged.  Both the hill-climbing variants and
simulated annealing share these two entry points.  For pass-level searches,
:meth:`LocalSearchState.candidate_mask` exposes the whole move neighbourhood
(step bounds and memory feasibility included) as one dense boolean array,
and :meth:`LocalSearchState.probe_dependents` names the nodes whose probe
results an applied move can invalidate — which is what lets
:func:`~repro.localsearch.hill_climbing.hill_climb` skip re-probing nodes
whose neighbourhood provably did not change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.cost import superstep_block_costs, superstep_matrices
from ..model.machine import MEMORY_EPS, BspMachine
from ..model.schedule import BspSchedule
from .engine import RECV, SEND, WORK, IncrementalCostEngine

__all__ = ["LocalSearchState", "Move"]

Move = Tuple[int, int, int]
"""A candidate move ``(node, new_processor, new_superstep)``."""

#: Sentinel for "no successor of u on p" in the ``succ_min`` table.  Large
#: enough to never be a real superstep, small enough that ``_NO_STEP - 1`` does
#: not overflow int64 arithmetic.
_NO_STEP = np.iinfo(np.int64).max // 4

_EMPTY_ROWS = np.zeros(0, dtype=np.int64)


class LocalSearchState:
    """Mutable scheduling state with incremental BSP+NUMA cost maintenance."""

    def __init__(self, schedule: BspSchedule) -> None:
        self.dag: ComputationalDAG = schedule.dag
        self.machine: BspMachine = schedule.machine
        self.proc = np.asarray(schedule.proc, dtype=np.int64).copy()
        self.step = np.asarray(schedule.step, dtype=np.int64).copy()
        n = self.dag.n
        self.P = self.machine.P
        self.g = float(self.machine.g)
        self.l = float(self.machine.l)
        self.numa = np.asarray(self.machine.numa, dtype=np.float64)

        # CSR adjacency views and float weight arrays used on the hot path.
        self._succ_indptr = self.dag.succ_indptr
        self._succ_indices = self.dag.succ_indices
        self._pred_indptr = self.dag.pred_indptr
        self._pred_indices = self.dag.pred_indices
        self._work_of = np.asarray(self.dag.work, dtype=np.float64)
        self._comm_of = np.asarray(self.dag.comm, dtype=np.float64)
        # Plain-python mirrors for scalar hot-loop lookups (a numpy scalar
        # index costs ~10x a list index).
        self._work_list = self._work_of.tolist()
        self._comm_list = self._comm_of.tolist()
        self._numa_list = self.numa.tolist()

        # Memory-constrained model variant: per-node memory weights and the
        # running per-processor usage, maintained only when the machine
        # carries bounds (the unconstrained hot path pays nothing).
        bounds = self.machine.memory_bounds
        if bounds is None:
            self._mem_bounds: Optional[List[float]] = None
            self._mem_list: List[float] = []
            self.mem_used: List[float] = []
        else:
            self._mem_bounds = bounds.tolist()
            mem = np.asarray(self.dag.memory, dtype=np.float64)
            self._mem_list = mem.tolist()
            self.mem_used = (
                np.bincount(self.proc, weights=mem, minlength=self.P).tolist()
                if n
                else [0.0] * self.P
            )

        # The (S, P) matrices come from the same code path as model.cost:
        # the lazy-communication matrices of the current assignment.  The
        # engine owns them together with the per-row costs and the total.
        lazy = BspSchedule(self.dag, self.machine, self.proc, self.step)
        work, send, recv = superstep_matrices(lazy)
        self.engine = IncrementalCostEngine(work, send, recv, self.g, self.l)

        # Dense per-(node, processor) successor-step tables.  They are built
        # vectorized but kept as plain nested python lists afterwards: every
        # hot-path access is a scalar read/write, which python lists serve
        # ~10x faster than numpy fancy scalar indexing.
        succ_min = np.full((n, self.P), _NO_STEP, dtype=np.int64)
        succ_min_cnt = np.zeros((n, self.P), dtype=np.int64)
        succ_cnt = np.zeros((n, self.P), dtype=np.int64)
        if self.dag.num_edges:
            eu = self.dag.edge_sources
            pv = self.proc[self.dag.edge_targets]
            sv = self.step[self.dag.edge_targets]
            np.add.at(succ_cnt, (eu, pv), 1)
            np.minimum.at(succ_min, (eu, pv), sv)
            at_min = sv == succ_min[eu, pv]
            np.add.at(succ_min_cnt, (eu[at_min], pv[at_min]), 1)
        self.succ_min: List[List[int]] = succ_min.tolist()
        self.succ_min_cnt: List[List[int]] = succ_min_cnt.tolist()
        self.succ_cnt: List[List[int]] = succ_cnt.tolist()

        # Dense per-(node, processor) step-bound tables; built vectorized on
        # first use (pass-level searches need all rows, probe-only users
        # like simulated annealing never pay for the full build).
        self._lo: Optional[np.ndarray] = None
        self._hi: Optional[np.ndarray] = None
        self._bounds_dirty = np.zeros(n, dtype=bool)

        #: Superstep rows whose matrices the most recent :meth:`apply_move`
        #: changed (unique, within range).
        self.last_touched_rows: np.ndarray = _EMPTY_ROWS

    # ------------------------------------------------------------------
    # Engine delegation (the matrices live on the shared engine)
    # ------------------------------------------------------------------
    @property
    def work(self) -> np.ndarray:
        return self.engine.work

    @property
    def send(self) -> np.ndarray:
        return self.engine.send

    @property
    def recv(self) -> np.ndarray:
        return self.engine.recv

    @property
    def step_cost(self) -> np.ndarray:
        return self.engine.step_cost

    @property
    def total_cost(self) -> float:
        return self.engine.total_cost

    @property
    def S(self) -> int:
        return self.engine.S

    @property
    def memory_bounded(self) -> bool:
        """Whether the machine carries per-processor memory bounds."""
        return self._mem_bounds is not None

    # ------------------------------------------------------------------
    # Low-level helpers
    # ------------------------------------------------------------------
    def _needed_step(self, u: int, p: int) -> Optional[int]:
        """Earliest superstep in which a successor of ``u`` on ``p`` runs."""
        m = self.succ_min[u][p]
        return None if m >= _NO_STEP else m

    def _succ_inc(self, u: int, p: int, s: int) -> None:
        """Record one more successor of ``u`` on processor ``p`` at step ``s``."""
        self.succ_cnt[u][p] += 1
        m = self.succ_min[u][p]
        if s < m:
            self.succ_min[u][p] = s
            self.succ_min_cnt[u][p] = 1
        elif s == m:
            self.succ_min_cnt[u][p] += 1

    def _succ_dec(self, u: int, p: int, s: int) -> None:
        """Remove one successor of ``u`` on processor ``p`` at step ``s``.

        When the last successor at the current minimum disappears the new
        minimum is recovered by a CSR rescan of ``u``'s successor list; that
        scan must therefore run *after* ``proc``/``step`` reflect the move.
        """
        self.succ_cnt[u][p] -= 1
        if s != self.succ_min[u][p]:
            return
        cnt = self.succ_min_cnt[u][p] - 1
        if cnt > 0:
            self.succ_min_cnt[u][p] = cnt
        elif self.succ_cnt[u][p] == 0:
            self.succ_min[u][p] = _NO_STEP
            self.succ_min_cnt[u][p] = 0
        else:
            children = self._succ_indices[self._succ_indptr[u]:self._succ_indptr[u + 1]]
            steps = self.step[children[self.proc[children] == p]]
            new_min = int(steps.min())
            self.succ_min[u][p] = new_min
            self.succ_min_cnt[u][p] = int((steps == new_min).sum())

    # ------------------------------------------------------------------
    # Move validity
    # ------------------------------------------------------------------
    def _step_bounds(self, v: int) -> Tuple[List[int], List[int]]:
        """Per-processor bounds ``lo[p] <= new_step <= hi[p]`` for moving ``v``.

        A predecessor on the target processor allows equality, any other
        predecessor forces strict inequality; symmetrically for successors.
        This is the scalar reference used to patch single rows of the dense
        bound tables; the tables themselves are built by the vectorized
        :meth:`_build_bounds`.
        """
        P = self.P
        lo = [0] * P
        hi = [_NO_STEP] * P
        for u in self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]].tolist():
            su = int(self.step[u])
            pu = int(self.proc[u])
            strict = su + 1
            for p in range(P):
                bound = su if p == pu else strict
                if bound > lo[p]:
                    lo[p] = bound
        for w in self._succ_indices[self._succ_indptr[v]:self._succ_indptr[v + 1]].tolist():
            sw = int(self.step[w])
            pw = int(self.proc[w])
            strict = sw - 1
            for p in range(P):
                bound = sw if p == pw else strict
                if bound < hi[p]:
                    hi[p] = bound
        return lo, hi

    def _build_bounds(self) -> None:
        """Vectorized construction of the dense ``(n, P)`` lo / hi tables.

        ``lo[v, p] = max over preds u of (step[u] + (proc[u] != p))`` and
        ``hi[v, p] = min over succs w of (step[w] - (proc[w] != p))`` are
        computed for *all* nodes in one pass over the CSR edge arrays using
        the column-excluded-extremum trick: per-(node, processor) extrema of
        the neighbour steps plus the top-2 extrema across processors.
        """
        n, P = self.dag.n, self.P
        lo = np.zeros((n, P), dtype=np.int64)
        hi = np.full((n, P), _NO_STEP, dtype=np.int64)
        if self.dag.num_edges:
            eu = self.dag.edge_sources
            ev = self.dag.edge_targets
            rows = np.arange(n)
            cols = np.arange(P)[None, :]

            # Predecessor side: per-(v, p) max step of preds on p ...
            on = np.full((n, P), -1, dtype=np.int64)
            np.maximum.at(on, (ev, self.proc[eu]), self.step[eu])
            # ... and the max over the *other* processors, via top-2 maxima.
            m1 = on.max(axis=1)
            a1 = on.argmax(axis=1)
            masked = on.copy()
            masked[rows, a1] = -1
            m2 = masked.max(axis=1)
            excl = np.where(cols == a1[:, None], m2[:, None], m1[:, None])
            lo = np.maximum(np.maximum(excl + 1, on), 0)

            # Successor side, symmetric with minima.
            on_s = np.full((n, P), _NO_STEP, dtype=np.int64)
            np.minimum.at(on_s, (eu, self.proc[ev]), self.step[ev])
            m1s = on_s.min(axis=1)
            a1s = on_s.argmin(axis=1)
            masked_s = on_s.copy()
            masked_s[rows, a1s] = _NO_STEP
            m2s = masked_s.min(axis=1)
            excl_s = np.where(cols == a1s[:, None], m2s[:, None], m1s[:, None])
            # "No successor off p" must stay at the sentinel, not sentinel-1.
            excl_s = np.where(excl_s >= _NO_STEP, _NO_STEP, excl_s - 1)
            hi = np.minimum(excl_s, on_s)
        self._lo = lo
        self._hi = hi
        self._bounds_dirty = np.zeros(n, dtype=bool)

    def _bounds_row(self, v: int) -> Tuple[List[int], List[int]]:
        """Fresh lo / hi bounds of ``v`` as python lists, patching if dirty."""
        if self._lo is None:
            return self._step_bounds(v)
        if self._bounds_dirty[v]:
            lo, hi = self._step_bounds(v)
            self._lo[v] = lo
            self._hi[v] = hi
            self._bounds_dirty[v] = False
            return lo, hi
        return self._lo[v].tolist(), self._hi[v].tolist()

    def _refresh_bounds(self) -> None:
        """Materialize the dense bound tables / patch every dirty row."""
        if self._lo is None:
            self._build_bounds()
            return
        if not self._bounds_dirty.any():
            return
        for v in np.nonzero(self._bounds_dirty)[0].tolist():
            lo, hi = self._step_bounds(v)
            self._lo[v] = lo
            self._hi[v] = hi
        self._bounds_dirty[:] = False

    def _memory_ok(self, v: int, new_proc: int) -> bool:
        """Whether moving ``v`` onto ``new_proc`` respects its memory bound.

        This is the memory mask of the move neighbourhood: together with
        :meth:`is_move_valid` / :meth:`candidate_moves` it keeps every move
        probed by :meth:`move_deltas` (whose precondition is a valid move)
        within the per-processor bounds, so the local searches never leave
        the memory-feasible region once they start inside it.
        """
        if self._mem_bounds is None or new_proc == self.proc[v]:
            return True
        return (
            self.mem_used[new_proc] + self._mem_list[v]
            <= self._mem_bounds[new_proc] + MEMORY_EPS
        )

    def is_move_valid(self, v: int, new_proc: int, new_step: int) -> bool:
        """Check whether moving ``v`` keeps the (lazy-comm) schedule valid.

        Assignments of all other nodes are unchanged, so the conditions are
        local: every predecessor must still be able to deliver its value,
        every successor must still receive ``v``'s value in time, and the
        target processor must have memory capacity left for ``v`` when the
        machine is memory-bounded.
        """
        if new_step < 0 or not (0 <= new_proc < self.P):
            return False
        if new_proc == self.proc[v] and new_step == self.step[v]:
            return False
        if not self._memory_ok(v, new_proc):
            return False
        lo, hi = self._bounds_row(v)
        return lo[new_proc] <= new_step <= hi[new_proc]

    def candidate_moves(self, v: int) -> List[Move]:
        """All valid moves of ``v`` to any processor in supersteps s-1, s, s+1.

        Moves whose target processor lacks memory capacity for ``v`` are
        masked out, so downstream :meth:`move_deltas` probes only see
        memory-feasible candidates.
        """
        s = int(self.step[v])
        p0 = int(self.proc[v])
        lo, hi = self._bounds_row(v)
        moves: List[Move] = []
        for target_step in (s - 1, s, s + 1):
            if target_step < 0:
                continue
            for p in range(self.P):
                if (
                    lo[p] <= target_step <= hi[p]
                    and not (target_step == s and p == p0)
                    and self._memory_ok(v, p)
                ):
                    moves.append((v, p, target_step))
        return moves

    def candidate_mask(self) -> np.ndarray:
        """Dense ``(n, 3, P)`` mask of the whole move neighbourhood.

        ``mask[v, j, p]`` is True iff moving ``v`` to processor ``p`` in
        superstep ``step[v] + j - 1`` is valid (step bounds, non-identity
        and memory feasibility included); axis 1 enumerates the target steps
        ``s-1, s, s+1`` in :meth:`candidate_moves` order, so
        ``np.nonzero(mask[v])`` reproduces that method's move ordering.
        """
        n = self.dag.n
        mask = np.zeros((n, 3, self.P), dtype=bool)
        if n == 0:
            return mask
        self._refresh_bounds()
        t = self.step[:, None] + np.array([-1, 0, 1], dtype=np.int64)[None, :]
        t3 = t[:, :, None]
        mask = (self._lo[:, None, :] <= t3) & (t3 <= self._hi[:, None, :]) & (t3 >= 0)
        mask[np.arange(n), 1, self.proc] = False
        if self._mem_bounds is not None:
            used = np.asarray(self.mem_used)
            bounds = np.asarray(self._mem_bounds)
            mem = np.asarray(self._mem_list)
            fits = mem[:, None] + used[None, :] <= bounds[None, :] + MEMORY_EPS
            fits[np.arange(n), self.proc] = True
            mask &= fits[:, None, :]
        return mask

    def moves_from_mask(self, v: int, mask_row: np.ndarray) -> List[Move]:
        """Decode one row of :meth:`candidate_mask` into a move list."""
        s = int(self.step[v]) - 1
        steps, procs = np.nonzero(mask_row)
        return [(v, p, s + j) for j, p in zip(steps.tolist(), procs.tolist())]

    def probe_dependents(self, v: int) -> np.ndarray:
        """Nodes whose cached probe results a move of ``v`` can invalidate.

        A :meth:`move_deltas` probe of ``x`` reads the assignments of ``x``,
        its predecessors and successors, and — through the successor-step
        tables of its predecessors — of the other successors of those
        predecessors.  Moving ``v`` therefore only affects probes of ``v``
        itself, its neighbours, and its siblings-through-a-shared-parent;
        all other probe results stay valid as long as the superstep rows
        they read (the per-item rows :meth:`move_deltas_many` returns) are
        untouched.
        """
        preds = self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]]
        parts = [
            np.array([v], dtype=np.int64),
            preds,
            self._succ_indices[self._succ_indptr[v]:self._succ_indptr[v + 1]],
        ]
        si, sx = self._succ_indptr, self._succ_indices
        parts.extend(sx[si[u]:si[u + 1]] for u in preds.tolist())
        return np.unique(np.concatenate(parts))

    # ------------------------------------------------------------------
    # Applying moves
    # ------------------------------------------------------------------
    def _apply_raw(self, v: int, new_proc: int, new_step: int, touched: List[int]) -> None:
        """Update all matrices and tables for the move, without refreshing
        the per-step costs; affected superstep rows are appended to
        ``touched``."""
        old_proc = int(self.proc[v])
        old_step = int(self.step[v])
        touched.append(old_step)
        touched.append(new_step)
        mats = self.engine.mats
        send = mats[SEND]
        recv = mats[RECV]

        # --- work matrix -------------------------------------------------
        w_v = self._work_list[v]
        mats[WORK, old_proc, old_step] -= w_v
        mats[WORK, new_proc, new_step] += w_v

        # --- outgoing transfers of v (v as the producer) -------------------
        # The set of target processors and their needed steps do not change,
        # but the source processor (and hence the NUMA weight and the sending
        # processor's load) does, and targets equal to the old/new processor
        # appear/disappear.  One vectorized scatter per matrix replaces the
        # per-processor python loop (np.add.at keeps duplicate target rows
        # accumulating in the same ascending-q order as the loop did).
        c_v = self._comm_list[v]
        nd = np.fromiter(self.succ_min[v], dtype=np.int64, count=self.P)
        targets_q = np.nonzero(nd < _NO_STEP)[0]
        if targets_q.size:
            rows = nd[targets_q] - 1
            old_mask = targets_q != old_proc
            if old_mask.any():
                volumes = c_v * self.numa[old_proc, targets_q[old_mask]]
                np.subtract.at(send[old_proc], rows[old_mask], volumes)
                np.subtract.at(recv, (targets_q[old_mask], rows[old_mask]), volumes)
                touched.extend(rows[old_mask].tolist())
            new_mask = targets_q != new_proc
            if new_mask.any():
                volumes = c_v * self.numa[new_proc, targets_q[new_mask]]
                np.add.at(send[new_proc], rows[new_mask], volumes)
                np.add.at(recv, (targets_q[new_mask], rows[new_mask]), volumes)
                touched.extend(rows[new_mask].tolist())

        # Commit v's new position before touching the successor tables of its
        # parents: the rescan inside _succ_dec reads proc/step and must see
        # the post-move assignment.
        self.proc[v] = new_proc
        self.step[v] = new_step
        if self._mem_bounds is not None and new_proc != old_proc:
            m_v = self._mem_list[v]
            self.mem_used[old_proc] -= m_v
            self.mem_used[new_proc] += m_v

        # --- incoming transfers (v as a consumer of its predecessors) ------
        # The only target processors whose "first needed" superstep can
        # change are v's old and new processor.
        numa = self._numa_list
        targets = (old_proc,) if new_proc == old_proc else (old_proc, new_proc)
        for u in self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]].tolist():
            pu = int(self.proc[u])
            min_row = self.succ_min[u]
            old_needed = [min_row[q] for q in targets]
            if new_proc == old_proc:
                # Same-processor step change: add before remove so that a
                # rescan triggered by the removal sees the final multiset.
                self._succ_inc(u, new_proc, new_step)
                self._succ_dec(u, old_proc, old_step)
            else:
                self._succ_dec(u, old_proc, old_step)
                self._succ_inc(u, new_proc, new_step)
            for q, was_needed in zip(targets, old_needed):
                if q == pu:
                    continue
                now_needed = min_row[q]
                if was_needed == now_needed:
                    continue
                volume = self._comm_list[u] * numa[pu][q]
                if was_needed < _NO_STEP:
                    send[pu, was_needed - 1] -= volume
                    recv[q, was_needed - 1] -= volume
                    touched.append(was_needed - 1)
                if now_needed < _NO_STEP:
                    send[pu, now_needed - 1] += volume
                    recv[q, now_needed - 1] += volume
                    touched.append(now_needed - 1)

        # The step bounds of v's neighbours depend on v's assignment; patch
        # their dense rows lazily on next access.
        self._bounds_dirty[
            self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]]
        ] = True
        self._bounds_dirty[
            self._succ_indices[self._succ_indptr[v]:self._succ_indptr[v + 1]]
        ] = True

    def apply_move(self, v: int, new_proc: int, new_step: int) -> float:
        """Apply the move and return the new total cost.

        The caller is responsible for only applying valid moves (see
        :meth:`is_move_valid`); to revert, apply the inverse move with the
        node's previous processor and superstep.
        """
        engine = self.engine
        engine.ensure_capacity(new_step)
        touched: List[int] = []
        self._apply_raw(v, new_proc, new_step, touched)
        self.last_touched_rows = engine.refresh_rows(touched)
        return engine.total_cost

    def move_deltas_many(
        self, items: Sequence[Tuple[int, Sequence[Move]]]
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Cost changes for candidate moves of *many* nodes, state unchanged.

        This is the batched probe at the heart of the local searches.  For
        each ``(v, moves)`` item, ``v``'s contribution at its current
        position is removed once (shared by all its candidates) and each
        candidate's additions are scattered into its own copy of the
        affected superstep rows; the copies of *all items* live in one
        rows-last ``(3, P, sum_i K_i * nR_i)`` tensor, so the whole batch
        costs two gathers, two flat scatter-adds and a single fused
        cost-kernel pass instead of a dozen numpy calls per node.  All moves
        of an item must be valid moves of that item's node (e.g.
        :meth:`candidate_moves` output); all probes are evaluated against
        the same (current) state.

        Returns ``(deltas, rows)``: per item, the per-candidate cost deltas
        and the sorted superstep rows the probe read (the probe result is a
        pure function of those rows plus the node's 2-hop neighbourhood
        assignments — see :meth:`probe_dependents`).
        """
        engine = self.engine
        P = self.P
        numa = self._numa_list
        comm = self._comm_list
        succ_min = self.succ_min
        sc = engine.step_cost_list
        max_s = -1
        for _, moves in items:
            for mm in moves:
                if mm[2] > max_s:
                    max_s = mm[2]
        if max_s >= 0:
            engine.ensure_capacity(max_s)
        S = engine.S
        # A scatter entry names its cell by a key ``matrix * P + processor``
        # (WORK = 0, SEND = 1, RECV = 2), the row of its block, and a value.
        send_key = SEND * P
        recv_key = RECV * P

        all_rows: List[int] = []      #: concatenated per-item sorted row sets
        src: List[int] = []           #: base-row index for each expanded row
        rm_k: List[int] = []          #: removal scatter (key, row, value)
        rm_r: List[int] = []
        rm_v: List[float] = []
        ad_k: List[int] = []          #: per-candidate addition scatter
        ad_r: List[int] = []
        ad_v: List[float] = []
        seg_starts: List[int] = []    #: first expanded row of every candidate
        base_costs: List[float] = []  #: current cost of each item's rows, per candidate
        shape: List[Tuple[int, int]] = []  #: (candidates, rows) per item
        n_off = 0   # rows gathered so far
        m_off = 0   # expanded (candidate-replicated) rows so far

        for v, moves in items:
            if not moves:
                shape.append((0, 0))
                continue
            p0 = int(self.proc[v])
            s0 = int(self.step[v])
            parents = self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]].tolist()
            w_v = self._work_list[v]
            c_v = comm[v]

            # Targets of v's outgoing transfers (independent of v's position).
            needed_row = succ_min[v]
            out_q = [q for q in range(P) if needed_row[q] < _NO_STEP]
            out_rows = [needed_row[q] - 1 for q in out_q]

            # --- phase 1: virtually remove v from the successor tables -----
            # The sentinel step keeps a _succ_dec rescan from seeing v at s0.
            # Collection runs under try/finally so that even a probe of an
            # invalid move (a precondition violation) cannot leave the
            # tables in the "v removed" state.
            old_nd_p0 = []
            self.step[v] = _NO_STEP
            for u in parents:
                old_nd_p0.append(succ_min[u][p0])
                self._succ_dec(u, p0, s0)
            try:
                # Per parent, read once: processor, comm weight, NUMA row,
                # first-needed step on p0 before the removal, and the
                # successor-step row (live: it holds the "v removed" state
                # until phase 4).
                pinfo = []
                for u, nd_old in zip(parents, old_nd_p0):
                    pu = int(self.proc[u])
                    pinfo.append((pu, comm[u], numa[pu], nd_old, succ_min[u]))

                # --- collect every superstep row a candidate can touch -----
                cand_procs = {m[1] for m in moves}
                cand_procs.add(p0)
                rows = {s0}
                rows.update(out_rows)
                for (_, _, s) in moves:
                    rows.add(s)
                    rows.add(s - 1)
                for _, _, _, nd_old, min_row in pinfo:
                    if nd_old < _NO_STEP:
                        rows.add(nd_old - 1)
                    for p in cand_procs:
                        nd = min_row[p]
                        if nd < _NO_STEP:
                            rows.add(nd - 1)
                rows_sorted = sorted(r for r in rows if 0 <= r < S)
                nR = len(rows_sorted)
                ridx = dict(zip(rows_sorted, range(nR)))
                out_idx = [ridx[row] for row in out_rows]

                # --- phase 2: shared removal deltas (item's base rows) -----
                rm_k.append(p0)
                rm_r.append(n_off + ridx[s0])
                rm_v.append(-w_v)
                numa_p0 = numa[p0]
                for q, i in zip(out_q, out_idx):
                    if q == p0:
                        continue
                    volume = c_v * numa_p0[q]
                    i += n_off
                    rm_k += (send_key + p0, recv_key + q)
                    rm_r += (i, i)
                    rm_v += (-volume, -volume)
                for pu, c_u, numa_pu, nd_old, min_row in pinfo:
                    if pu == p0:
                        continue
                    nd_new = min_row[p0]
                    if nd_old == nd_new:
                        continue
                    volume = c_u * numa_pu[p0]
                    keys = (send_key + pu, recv_key + p0)
                    if nd_old < _NO_STEP:
                        i = n_off + ridx[nd_old - 1]
                        rm_k += keys
                        rm_r += (i, i)
                        rm_v += (-volume, -volume)
                    if nd_new < _NO_STEP:
                        i = n_off + ridx[nd_new - 1]
                        rm_k += keys
                        rm_r += (i, i)
                        rm_v += (volume, volume)

                # --- phase 3: per-candidate addition deltas ----------------
                fo = m_off
                for (_, p, s) in moves:
                    seg_starts.append(fo)
                    ad_k.append(p)
                    ad_r.append(fo + ridx[s])
                    ad_v.append(w_v)
                    numa_p = numa[p]
                    for q, i in zip(out_q, out_idx):
                        if q == p:
                            continue
                        volume = c_v * numa_p[q]
                        i += fo
                        ad_k += (send_key + p, recv_key + q)
                        ad_r += (i, i)
                        ad_v += (volume, volume)
                    for pu, c_u, numa_pu, _, min_row in pinfo:
                        if p == pu:
                            continue
                        nd = min_row[p]
                        if s < nd:
                            # v becomes the earliest consumer of u on p: the
                            # (lazy) transfer u -> p moves from superstep
                            # nd-1 to superstep s-1.
                            volume = c_u * numa_pu[p]
                            keys = (send_key + pu, recv_key + p)
                            if nd < _NO_STEP:
                                i = fo + ridx[nd - 1]
                                ad_k += keys
                                ad_r += (i, i)
                                ad_v += (-volume, -volume)
                            i = fo + ridx[s - 1]
                            ad_k += keys
                            ad_r += (i, i)
                            ad_v += (volume, volume)
                    fo += nR
            finally:
                # --- phase 4: restore the successor tables -----------------
                for u in parents:
                    self._succ_inc(u, p0, s0)
                self.step[v] = s0

            K = len(moves)
            bc = 0.0
            for r in rows_sorted:
                bc += sc[r]
            base_costs += [bc] * K
            src += list(range(n_off, n_off + nR)) * K
            all_rows += rows_sorted
            shape.append((K, nR))
            n_off += nR
            m_off += K * nR

        if m_off == 0:
            return [np.zeros(0, dtype=np.float64) for _ in items], [_EMPTY_ROWS] * len(items)

        # --- phase 5: one gather + scatter + fused cost pass for the batch -
        # Every item owns its own copies of its rows, so duplicate rows
        # across items are independent; the scatters must be buffered
        # np.add.at because one candidate can hit a cell twice, and its flat
        # index into the contiguous block keeps the list's accumulation
        # order.
        R_all = np.fromiter(all_rows, dtype=np.int64, count=n_off)
        base = np.take(engine.mats, R_all, axis=2)
        np.add.at(
            base.reshape(-1),
            np.array(rm_k, dtype=np.int64) * n_off + np.array(rm_r, dtype=np.int64),
            rm_v,
        )
        T = np.take(base, np.fromiter(src, dtype=np.int64, count=m_off), axis=2)
        np.add.at(
            T.reshape(-1),
            np.array(ad_k, dtype=np.int64) * m_off + np.array(ad_r, dtype=np.int64),
            ad_v,
        )

        costs = superstep_block_costs(T, self.g, self.l)
        sums = np.add.reduceat(costs, np.fromiter(seg_starts, dtype=np.int64, count=len(seg_starts)))
        diff = sums - np.array(base_costs)
        deltas: List[np.ndarray] = []
        rows_out: List[np.ndarray] = []
        k_off = 0
        r_off = 0
        for K, nR in shape:
            deltas.append(diff[k_off:k_off + K])
            rows_out.append(R_all[r_off:r_off + nR] if K else _EMPTY_ROWS)
            k_off += K
            r_off += nR
        return deltas, rows_out

    def move_deltas(self, v: int, moves: Sequence[Move]) -> np.ndarray:
        """Cost changes of several candidate moves of ``v``, state unchanged.

        Single-item convenience wrapper around :meth:`move_deltas_many`.
        All ``moves`` must be valid moves of the same node ``v`` (e.g. the
        output of :meth:`candidate_moves`).
        """
        if not moves:
            return np.zeros(0, dtype=np.float64)
        return self.move_deltas_many([(v, moves)])[0][0]

    def move_delta(self, v: int, new_proc: int, new_step: int) -> float:
        """Cost change the move would cause, leaving the state unchanged."""
        return float(self.move_deltas(v, [(v, new_proc, new_step)])[0])

    def evaluate_move(self, v: int, new_proc: int, new_step: int) -> float:
        """Cost after the move, computed without changing the state."""
        return self.total_cost + self.move_delta(v, new_proc, new_step)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_schedule(self) -> BspSchedule:
        """Materialize the current state as a (lazy-comm) BSP schedule with
        compacted superstep indices.

        Compaction removes empty supersteps, so the returned schedule's cost
        is less than or equal to :attr:`total_cost` (which prices the
        schedule exactly as currently laid out).
        """
        sched = BspSchedule(self.dag, self.machine, self.proc.copy(), self.step.copy())
        return sched.normalized()

    def current_schedule(self) -> BspSchedule:
        """The schedule exactly as laid out (no superstep compaction)."""
        return BspSchedule(self.dag, self.machine, self.proc.copy(), self.step.copy())

    def recompute_cost(self) -> float:
        """Recompute the total cost of the current layout from scratch.

        Testing / debugging aid: must always equal :attr:`total_cost`.
        """
        return float(self.current_schedule().cost())
