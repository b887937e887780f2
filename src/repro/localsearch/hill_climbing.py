"""HC: hill-climbing local search over node moves (paper Section 4.3).

Starting from a valid BSP schedule, HC repeatedly applies single-node moves
that strictly decrease the total cost: a node currently at (processor ``p``,
superstep ``s``) may be moved to any processor in supersteps ``s-1``, ``s``
or ``s+1``, with all other assignments unchanged, as long as the result is
still a valid schedule (under the lazy communication schedule).

The paper's preliminary experiments found the greedy first-improvement
variant to match the steepest-descent variant in quality at a fraction of
the run time; both are available here (``variant="first"`` /
``variant="best"``), the greedy one being the default used by the combined
pipeline.

The scan itself is pass-vectorized: each pass starts from the dense
candidate mask of :meth:`LocalSearchState.candidate_mask` (one numpy pass
over all nodes instead of n python neighbourhood scans), and between applied
moves the state is static, so a node whose last probe found no improving
move — and whose probe dependencies (its 2-hop neighbourhood via
:meth:`LocalSearchState.probe_dependents` and the superstep rows the probe
read) have not changed since — is provably still non-improving and is
skipped without re-probing.

Probes run in batches through :meth:`LocalSearchState.move_deltas_many`: a
refill probes the visited node plus the next eligible ones, and a prefetched
result is used at its node's turn only if no move applied since invalidated
it.  Batch sizes follow a slow start: 2 at the start and after every
applied move, doubling with each batch probed up to :data:`_BATCH`, so
batches stay short while moves are frequent (when most prefetched results
would be invalidated before use) and regain full size in the long
move-free stretches of late passes.  A probe's result does not depend on
which nodes share its batch, and a result is used only while it equals a
fresh probe, so the batch size decides how far ahead the scan computes,
never what it sees: the applied move sequence is byte-identical to the
naive probe-every-node scan (``tests/test_hill_climbing_oracle.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from .state import LocalSearchState

__all__ = ["HillClimbingResult", "hill_climb"]

_EPS = 1e-9

#: Budget checks between ``time.monotonic()`` reads.  Clock reads are ~100ns
#: each but called once per node in the scan loop, which dominates on small
#: instances; striding keeps time limits responsive to within a few dozen
#: probes while making the common (no-limit or large-instance) case free.
_CLOCK_STRIDE = 64

#: Cap on the nodes probed per :meth:`LocalSearchState.move_deltas_many`
#: batch.  Full batches amortize the call's fixed numpy overhead, but an
#: applied move invalidates prefetched results through its touched superstep
#: rows: always probing 16 ahead discards 44% of the probes on the
#: benchmark's ``pipeline-hc`` workload, hence the slow start (module
#: docstring) that reaches this cap only between moves.
_BATCH = 16


@dataclass
class HillClimbingResult:
    """Outcome of a hill-climbing run."""

    schedule: BspSchedule
    initial_cost: float
    final_cost: float
    moves_applied: int
    passes: int
    reached_local_optimum: bool

    @property
    def improvement(self) -> float:
        """Relative cost reduction achieved (0 if the start was already optimal)."""
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


def hill_climb(
    schedule: BspSchedule,
    *,
    variant: str = "first",
    max_moves: Optional[int] = None,
    max_passes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> HillClimbingResult:
    """Run hill climbing on a schedule; returns the improved schedule.

    Parameters
    ----------
    variant:
        ``"first"`` applies the first improving move found (greedy, the
        paper's default); ``"best"`` scans all moves of a node and applies
        the one with the largest improvement.
    max_moves / max_passes / time_limit:
        Optional stopping criteria (any one of them ends the search early).
    """
    if variant not in ("first", "best"):
        raise ValueError("variant must be 'first' or 'best'")
    with _trace.span("hill_climb", variant=variant, nodes=schedule.dag.n) as tspan:
        return _hill_climb(
            schedule,
            variant=variant,
            max_moves=max_moves,
            max_passes=max_passes,
            time_limit=time_limit,
            tspan=tspan,
        )


def _hill_climb(
    schedule: BspSchedule,
    *,
    variant: str,
    max_moves: Optional[int],
    max_passes: Optional[int],
    time_limit: Optional[float],
    tspan: "_trace.SpanLike",
) -> HillClimbingResult:
    state = LocalSearchState(schedule)
    n = state.dag.n
    initial_cost = state.total_cost
    start_time = time.monotonic()
    moves_applied = 0
    passes = 0
    budget_calls = 0
    timed_out = False

    def out_of_budget() -> bool:
        nonlocal budget_calls, timed_out
        if max_moves is not None and moves_applied >= max_moves:
            return True
        if max_passes is not None and passes >= max_passes:
            return True
        if time_limit is not None:
            if timed_out:
                return True
            budget_calls += 1
            if budget_calls % _CLOCK_STRIDE == 1:
                timed_out = time.monotonic() - start_time > time_limit
                return timed_out
        return False

    # Probe-cache bookkeeping.  clean[v]: v's last probe found no improving
    # move and its 2-hop probe dependencies are unchanged since; it is still
    # non-improving iff the superstep rows that probe read (probe_rows[v])
    # are also untouched, which the monotone move-counter stamps check in
    # O(|rows|).  fresh[v]: v's row of the pass-level candidate mask still
    # matches candidate_moves(v).  dirty_stamp[v]: the move counter when an
    # applied move last invalidated v's probe dependencies — prefetched
    # batch results are consumed only if both their rows and their node
    # survived every move applied since the batch was probed.
    clean = np.zeros(n, dtype=bool)
    fresh = np.zeros(n, dtype=bool)
    probe_stamp = np.zeros(n, dtype=np.int64)
    dirty_stamp = np.zeros(n, dtype=np.int64)
    probe_rows: List[Optional[np.ndarray]] = [None] * n
    row_stamp = np.zeros(state.S, dtype=np.int64)
    move_counter = 0

    def stamp_rows(rows: np.ndarray) -> None:
        nonlocal row_stamp
        if rows.size:
            if int(rows[-1]) >= row_stamp.size:  # rows are sorted unique
                row_stamp = np.concatenate(
                    [row_stamp, np.zeros(int(rows[-1]) + 1 - row_stamp.size, dtype=np.int64)]
                )
            row_stamp[rows] = move_counter

    def rows_unchanged_since(rows: np.ndarray, stamp: int) -> bool:
        nonlocal row_stamp
        if rows.size == 0:
            return True
        if int(rows[-1]) >= row_stamp.size:
            row_stamp = np.concatenate(
                [row_stamp, np.zeros(int(rows[-1]) + 1 - row_stamp.size, dtype=np.int64)]
            )
        return int(row_stamp[rows].max()) <= stamp

    def probe_still_clean(v: int) -> bool:
        rows = probe_rows[v]
        return rows is not None and rows_unchanged_since(rows, int(probe_stamp[v]))

    # Prefetched probes: v -> (moves, deltas, rows, stamp).  Valid at v's
    # turn iff no applied move since `stamp` invalidated v's dependencies or
    # touched `rows` — in which case the cached deltas equal a fresh probe.
    cache: dict = {}
    batch_size = 2
    # Probe-waste telemetry, reported on the traced span only: nodes probed,
    # and prefetched results dropped as invalid before their node's turn.
    probes = 0
    discarded = 0

    def skippable(w: int) -> bool:
        if fresh[w] and not has_cands[w]:
            return True
        return bool(clean[w]) and probe_still_clean(w)

    improved_any = True
    while improved_any and not out_of_budget():
        improved_any = False
        passes += 1
        # One vectorized pass builds every node's candidate neighbourhood.
        mask = state.candidate_mask()
        has_cands = mask.any(axis=(1, 2))
        fresh[:] = True
        cache.clear()
        for v in range(n):
            if skippable(v):
                continue
            ent = cache.get(v)
            if ent is not None:
                moves, deltas, rows, stamp = ent
                if int(dirty_stamp[v]) > stamp or not rows_unchanged_since(rows, stamp):
                    del cache[v]
                    ent = None
                    discarded += 1
            if ent is None:
                # Refill: probe v plus the next eligible nodes in one batch.
                batch = []
                w = v
                while w < n and len(batch) < batch_size:
                    if not skippable(w):
                        entw = cache.get(w)
                        if entw is not None and (
                            int(dirty_stamp[w]) > entw[3]
                            or not rows_unchanged_since(entw[2], entw[3])
                        ):
                            # Invalidated prefetch: reclaim the slot so the
                            # node rides along in this batch.
                            del cache[w]
                            entw = None
                            discarded += 1
                        if entw is None:
                            mv = (
                                state.moves_from_mask(w, mask[w])
                                if fresh[w]
                                else state.candidate_moves(w)
                            )
                            if mv:
                                batch.append((w, mv))
                    w += 1
                if batch:
                    deltas_many, rows_many = state.move_deltas_many(batch)
                    for (w, mv), dl, rw in zip(batch, deltas_many, rows_many):
                        cache[w] = (mv, dl, rw, move_counter)
                    probes += len(batch)
                    batch_size = min(2 * batch_size, _BATCH)
                ent = cache.pop(v, None)
                if ent is None:
                    continue
                moves, deltas, rows, stamp = ent
            else:
                del cache[v]
            if out_of_budget():
                break
            if variant == "first":
                improving = np.nonzero(deltas < -_EPS)[0]
                chosen = int(improving[0]) if improving.size else None
            else:
                chosen = int(np.argmin(deltas))
                if deltas[chosen] >= -_EPS:
                    chosen = None
            if chosen is None:
                clean[v] = True
                probe_stamp[v] = stamp
                probe_rows[v] = rows
                continue
            _, p, s = moves[chosen]
            cross_proc = p != int(state.proc[v])
            state.apply_move(v, p, s)
            moves_applied += 1
            move_counter += 1
            improved_any = True
            batch_size = 2
            stamp_rows(state.last_touched_rows)
            if state.memory_bounded and cross_proc:
                # Memory headroom changed on two processors; any node's
                # candidate set may have gained/lost targets.
                clean[:] = False
                fresh[:] = False
                dirty_stamp[:] = move_counter
            else:
                deps = state.probe_dependents(v)
                clean[deps] = False
                fresh[deps] = False
                dirty_stamp[deps] = move_counter
        if _trace.enabled():
            # Convergence telemetry: one cost-vs-pass sample per scan.  The
            # hook reads state, never steers the search.
            tspan.event(
                "pass", index=passes, cost=float(state.total_cost), moves=moves_applied
            )
    reached_local_optimum = not improved_any

    final = state.to_schedule()
    result = HillClimbingResult(
        schedule=final,
        initial_cost=float(initial_cost),
        final_cost=float(final.cost()),
        moves_applied=moves_applied,
        passes=passes,
        reached_local_optimum=reached_local_optimum,
    )
    if _trace.enabled():
        tspan.annotate(
            initial_cost=result.initial_cost,
            final_cost=result.final_cost,
            moves=moves_applied,
            passes=passes,
            engine_transactions=state.engine.transactions,
            probes=probes,
            probes_discarded=discarded,
        )
    return result

