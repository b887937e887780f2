"""Every table and figure of the paper's evaluation, regenerated by ``reproduce()``.

One case per :data:`repro.experiments.tables.REPRO_TARGETS` key runs
``tables.reproduce(target)`` once under pytest-benchmark timing, persists the
rendered tables under ``benchmarks/results/`` and applies the target's shape
checks from :data:`CHECKS`.  The grids are declared only in ``reproduce()``,
so this checks exactly what ``python -m repro repro <target>`` prints; the
checks read P and delta from the tables' labels.  They test the *shape* the
paper reports (who wins, how the gap moves with delta and latency), not
absolute numbers.

``REPRO_BENCH_SCALE`` (``smoke``, ``reduced``, ``paper``) and
``REPRO_BENCH_JOBS`` (experiment-engine worker processes) are passed on as
``scale`` and ``jobs``.  One target::

    PYTHONPATH=src python -m pytest "benchmarks/bench_tables.py::test_reproduce[table1]"
"""

from __future__ import annotations

from typing import Callable, Dict, List

import pytest
from conftest import JOBS, SCALE, run_once

from repro.experiments import tables as paper_tables
from repro.experiments.report import Table


def _reduction(cell: str) -> float:
    """The first reduction of a cell, in percent: vs Cilk in ``"24% / 12%"``."""
    return float(cell.split("/")[0].strip().rstrip("%"))


def _grid_point(label: str) -> Dict[str, float]:
    """``"P=4, d=2"`` or ``"g=1,P=2"`` as ``{"P": 4.0, "d": 2.0}``."""
    return {key.strip(): float(value) for key, value in (p.split("=") for p in label.split(","))}


def _by_p(headers: List[str], values: List[float]) -> Dict[float, List[float]]:
    """Values of ``P=..,d=..`` columns grouped by P, delta ascending within each."""
    groups: Dict[float, List[float]] = {}
    for header, value in zip(headers, values):
        groups.setdefault(_grid_point(header)["P"], []).append(value)
    return groups


def _assert_one_row_per_dataset(table: Table) -> None:
    assert [row[0] for row in table.rows] == list(paper_tables.main_datasets(SCALE))


def _assert_beats_cilk(table: Table) -> None:
    """Positive reduction vs Cilk in every cell (Tables 1, 2, 11 and 12)."""
    for row in table.rows:
        for cell in row[1:]:
            assert _reduction(cell) > 0.0


def _check_table3(table: Table) -> None:
    # The multilevel scheduler improves on Cilk, and the improvement grows
    # with the NUMA factor delta (the paper's key trend), at every P.
    for row in table.rows:
        reductions = [_reduction(cell) for cell in row[1:]]
        assert all(r > 0 for r in reductions)
        assert reductions[-1] >= reductions[0] - 5.0


def _check_table4(table4: Table) -> None:
    # Every P row records a winner for every spmv instance.
    assert len(table4.rows) == 2
    for row in table4.rows:
        assert row[1] != "-"


def _check_table5(table5: Table) -> None:
    assert len(table5.rows) == 3  # one row per size bucket
    assert any(cell != "-" for row in table5.rows for cell in row[1:])


def _check_table6(table: Table) -> None:
    _assert_one_row_per_dataset(table)
    assert len(table.headers) == 1 + 2 * 2


def _check_table7(table: Table) -> None:
    labels = table.headers[1:]
    for row in table.rows:
        ratios = dict(zip(labels, (float(x) for x in row[1:])))
        # Cilk is the normalization unit, our final stage beats every
        # baseline, and the framework stages are monotone
        # (Init >= HCcs >= ILPpart >= ILP).
        assert ratios["Cilk"] == 1.0
        assert ratios["ILP"] <= min(ratios["Cilk"], ratios["HDagg"]) + 1e-9
        assert ratios["ILP"] <= ratios["ILPpart"] + 1e-9 <= ratios["HCcs"] + 1e-6 <= ratios["Init"] + 1e-6


def _check_table8(table: Table) -> None:
    for row in table.rows:
        for cell in row[1:]:
            assert float(cell.rstrip("%")) > 0.0  # we beat ETF in every cell


def _check_table9(table: Table) -> None:
    reductions = [_reduction(row[1]) for row in table.rows]
    assert len(reductions) == 4
    assert all(r > 0 for r in reductions)
    # The paper's trend: higher latency -> at least as large an improvement
    # (with a small tolerance, the trend is noisy at reduced scale).
    assert reductions[-1] >= reductions[0] - 5.0


def _check_table10(table: Table) -> None:
    _assert_one_row_per_dataset(table)
    # The paper's trend within each dataset: at every P, the improvement
    # grows from the lowest to the highest delta.
    for row in table.rows:
        reductions = [_reduction(cell) for cell in row[1:]]
        for per_delta in _by_p(table.headers[1:], reductions).values():
            assert per_delta[-1] >= per_delta[0] - 5.0


def _check_table13(table13: Table) -> None:
    assert [row[0] for row in table13.rows] == ["C15", "C30", "C_opt"]
    # C_opt takes the better of the two coarsening ratios, so its reduction
    # is at least as large as either single-ratio variant in every column.
    for col in range(1, len(table13.headers)):
        c15, c30, copt = (_reduction(row[col]) for row in table13.rows)
        assert copt >= max(c15, c30) - 1e-6


def _check_table14(table14: Table) -> None:
    assert [row[0] for row in table14.rows] == ["C15", "C30", "C_opt"]
    ratios = [[float(x) for x in row[1:]] for row in table14.rows]
    # The paper's crossover: at every P, the ratio of ML to the base
    # scheduler improves (gets smaller) from the lowest to the highest delta.
    for copt in _by_p(table14.headers[1:], ratios[2]).values():
        assert copt[-1] <= copt[0] + 0.1
    assert all(r > 0 for row in ratios for r in row)


def _check_fig5(table: Table) -> None:
    # Every stage of our framework is at least as good as the Cilk baseline,
    # and the final ILP stage is the best of our stages.
    for row in table.rows:
        cilk, hdagg, init, hccs, ilp = (float(x) for x in row[1:])
        assert cilk == 1.0
        assert ilp <= hccs + 1e-9 <= init + 1e-6
        assert ilp < cilk


def _check_fig6(table: Table) -> None:
    # Our base framework beats Cilk; at the highest delta and P the
    # multilevel scheduler is competitive with (or better than) the base
    # framework, mirroring the paper's crossover.  The other highest-delta
    # rows are printed, not checked.
    rows = {row[0]: [float(x) for x in row[1:]] for row in table.rows}
    for cilk, hdagg, init, hccs, ilp, ml in rows.values():
        assert cilk == 1.0
        assert ilp < 1.0
    points = {label: _grid_point(label) for label in rows}
    high_delta = max(point["d"] for point in points.values())
    high = sorted((point["P"], label) for label, point in points.items() if point["d"] == high_delta)
    for _, label in high[:-1]:
        print(f"{label}: ML {rows[label][5]:.3f} vs ILP {rows[label][4]:.3f} (not checked)")
    ilp, ml = rows[high[-1][1]][4:]
    assert ml <= ilp * 1.2


def _check_fig7(table: Table) -> None:
    for row in table.rows:
        cilk, hdagg, init, hccs = (float(x) for x in row[1:])
        assert cilk == 1.0
        assert hccs <= init + 1e-6  # local search only improves the initializers
        assert hccs < 1.0  # and the result beats Cilk


#: Target -> shape checks over the tables ``reproduce(target)`` returns.
CHECKS: Dict[str, Callable[..., None]] = {
    "table1": lambda by_p, by_dataset: _assert_beats_cilk(by_p),
    "table2": _assert_beats_cilk,
    "table3": _check_table3,
    "table4": _check_table4,
    "table5": _check_table5,
    "table6": _check_table6,
    "table7": _check_table7,
    "table8": _check_table8,
    "table9": _check_table9,
    "table10": _check_table10,
    "table11": _assert_beats_cilk,  # still beats Cilk without any ILP stage
    "table12": _assert_beats_cilk,
    "table13": _check_table13,
    "table14": _check_table14,
    "fig5": _check_fig5,
    "fig6": _check_fig6,
    "fig7": _check_fig7,
}

if set(CHECKS) != set(paper_tables.REPRO_TARGETS):
    raise LookupError(
        "CHECKS must cover exactly the repro targets; differing: "
        f"{sorted(set(CHECKS) ^ set(paper_tables.REPRO_TARGETS))}"
    )


@pytest.mark.parametrize("target", list(paper_tables.REPRO_TARGETS))
def test_reproduce(benchmark, emit, target):
    tables = run_once(benchmark, lambda: paper_tables.reproduce(target, scale=SCALE, jobs=JOBS))
    emit(*tables)
    CHECKS[target](*tables)
