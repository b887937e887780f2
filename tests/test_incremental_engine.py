"""Property-based equivalence of :class:`IncrementalCostEngine`.

The engine is the shared incremental-cost substrate of hill climbing,
simulated annealing and the communication hill climber.  These tests drive
its one mutation path (cell writes into ``mats`` plus ``refresh_rows``) with
random moves and assert that its running totals always equal a from-scratch
evaluation through the reference kernels in :mod:`repro.model.cost` — and
that the fused block kernel is *bitwise* interchangeable with the row kernel
it shortcuts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.localsearch.engine import RECV, SEND, WORK, IncrementalCostEngine
from repro.model.cost import superstep_block_costs, superstep_row_costs


@st.composite
def matrices(draw):
    S = draw(st.integers(min_value=1, max_value=6))
    P = draw(st.sampled_from([1, 2, 4]))
    def mat():
        # Quarter-integer grid: all engine arithmetic on these values is
        # exact in binary64.
        vals = draw(
            st.lists(
                st.integers(min_value=0, max_value=80), min_size=S * P, max_size=S * P
            )
        )
        return np.array(vals, dtype=np.float64).reshape(S, P) / 4.0
    return mat(), mat(), mat()


@st.composite
def engines(draw):
    work, send, recv = draw(matrices())
    g = draw(st.sampled_from([0.0, 1.0, 2.5]))
    l = draw(st.sampled_from([0.0, 4.0]))
    return IncrementalCostEngine(work, send, recv, g, l)


def _reference_total(engine: IncrementalCostEngine) -> float:
    rows = superstep_row_costs(
        engine.work, engine.send, engine.recv, engine.g, engine.l
    )
    return float(rows.sum())


@st.composite
def moves(draw, engine):
    """Cell writes of one applied move: ``(matrix, row, col, value)`` deltas."""
    count = draw(st.integers(min_value=1, max_value=5))
    cells = []
    for _ in range(count):
        mat = draw(st.sampled_from([WORK, SEND, RECV]))
        row = draw(st.integers(min_value=0, max_value=engine.S + 2))
        col = draw(st.integers(min_value=0, max_value=engine.P - 1))
        val = draw(st.sampled_from([-3.0, -1.0, 0.5, 1.0, 4.0]))
        cells.append((mat, row, col, val))
    return cells


def _apply(engine: IncrementalCostEngine, cells) -> None:
    """The engine's one mutation path: write the cells, refresh their rows."""
    engine.ensure_capacity(max(row for _, row, _, _ in cells))
    for mat, row, col, val in cells:
        engine.mats[mat, col, row] += val
    engine.refresh_rows(row for _, row, _, _ in cells)


class TestEngineMatchesReferenceKernels:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_transactions(self, data):
        """Running total tracks the reference kernel through any apply sequence."""
        engine = data.draw(engines(), label="engine")
        assert engine.total_cost == pytest.approx(_reference_total(engine))
        assert engine.transactions == 0
        steps = data.draw(st.integers(min_value=1, max_value=10), label="moves")
        for k in range(1, steps + 1):
            _apply(engine, data.draw(moves(engine), label="cells"))
            assert engine.total_cost == pytest.approx(_reference_total(engine))
            assert engine.total_cost == pytest.approx(engine.recompute_total())
            assert engine.step_cost_list == engine.step_cost.tolist()
            assert engine.transactions == k

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_block_kernel_bitwise_equals_row_kernel(self, data):
        """superstep_block_costs is bit-for-bit superstep_row_costs, fused."""
        work, send, recv = data.draw(matrices(), label="mats")
        g = data.draw(st.sampled_from([0.0, 1.0, 2.5, 7.0]), label="g")
        l = data.draw(st.sampled_from([0.0, 1.0, 5.0]), label="l")
        blocks = np.stack([work.T, send.T, recv.T])
        fused = superstep_block_costs(blocks, g, l)
        rows = superstep_row_costs(work, send, recv, g, l)
        assert np.array_equal(fused, rows)

    def test_step_cost_list_mirror_stays_in_sync(self):
        engine = IncrementalCostEngine(
            np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1.0
        )
        _apply(engine, [(SEND, 1, 0, 3.0), (RECV, 4, 1, 2.0)])
        assert engine.step_cost_list == engine.step_cost.tolist()
        _apply(engine, [(SEND, 1, 0, -3.0), (RECV, 4, 1, -2.0)])
        assert engine.step_cost_list == engine.step_cost.tolist()

    def test_capacity_growth_preserves_totals(self):
        engine = IncrementalCostEngine(
            np.ones((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), 2.0, 3.0
        )
        before = engine.total_cost
        engine.ensure_capacity(25)
        assert engine.S >= 26
        assert engine.total_cost == before
        assert engine.total_cost == pytest.approx(engine.recompute_total())

