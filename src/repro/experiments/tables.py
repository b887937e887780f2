"""Regeneration of every table and figure of the paper's evaluation.

The paper's evaluation (Section 7 and the appendix tables) runs a few
experiment grids, and every table and figure is a view of one of them.
:func:`run_grid` runs a grid: every dataset on every machine, one
:class:`~repro.experiments.runner.ExperimentResult` per cell.  A view is a
pure function from a grid to the tables of one paper artifact.
:func:`reproduce` is the one place that declares the grids and maps each
target to a grid and a view; ``repro repro`` and
``benchmarks/bench_tables.py`` both run it (see the README section
"Reproducing the paper's tables and figures").

Figures are bar charts of mean cost ratios in the paper; here they are
rendered as tables with one column per bar ("Cilk", "HDagg", "Init", "HCcs",
"ILP", optionally "ML"), normalized to the Cilk baseline exactly like the
paper's figures.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..pipeline.config import MultilevelConfig, PipelineConfig
from .report import Table, format_percent
from .runner import PIPELINE_ITEM, ExperimentResult, InstanceResult, ParallelRunner, WorkItem, run_experiment

__all__ = ["Grid", "run_grid", "REPRO_TARGETS", "main_datasets", "reproduce"]

Datasets = Dict[str, List[ComputationalDAG]]
#: Machines of a grid keyed by ``(P, x)``, where x is the machine's g, delta or latency.
Machines = Dict[Tuple[int, float], BspMachine]
#: One experiment per ``(dataset, P, x)`` cell.
Grid = Dict[Tuple[str, int, float], ExperimentResult]
#: Header and cell selector (``ds``, ``P`` and/or ``x``) of each row or column.
Axis = List[Tuple[str, Dict[str, object]]]
#: Renders one table cell from the grid cells it merges.
Cell = Callable[[ExperimentResult], str]


def run_grid(
    datasets: Datasets,
    machines: Machines,
    config: PipelineConfig,
    *,
    list_baselines: bool = False,
    multilevel_config: Optional[MultilevelConfig] = None,
    jobs: Optional[int] = None,
) -> Grid:
    """Run every dataset on every machine.

    Cells are inserted dataset by dataset, in ``machines`` order; a merged
    cell lists its instances in this order, and its geometric means depend
    on it bit for bit.
    """
    return {
        (name, P, x): run_experiment(
            dags, machine, pipeline_config=config, include_list_baselines=list_baselines,
            multilevel_config=multilevel_config, jobs=jobs,
        )
        for name, dags in datasets.items()
        for (P, x), machine in machines.items()
    }


def _run_initializers(
    training_set: Sequence[ComputationalDAG],
    machines: Machines,
    config: PipelineConfig,
    *,
    jobs: Optional[int] = None,
) -> Grid:
    """Run the pipeline alone on every training DAG and machine, one cell per DAG.

    Tables 4 and 5 read only the initializer costs, so no baseline runs.
    """
    combos = [(dag, key, machine) for dag in training_set for key, machine in machines.items()]
    results = ParallelRunner(jobs).execute([
        WorkItem(index=k, instance=k, dag=dag, machine=m, scheduler=PIPELINE_ITEM, pipeline_config=config)
        for k, (dag, _, m) in enumerate(combos)
    ])
    return {
        (dag.name, *key): ExperimentResult(machine.describe(), [
            InstanceResult(dag.name, dag.n, machine, result.costs, initializer_costs=result.initializer_costs)
        ])
        for (dag, key, machine), result in zip(combos, results)
    }


#: The key components, as the views name them.
_COMPONENTS = ("ds", "P", "x")


def _values(grid: Grid, component: str) -> list:
    """The values of a key component, in grid insertion order."""
    i = _COMPONENTS.index(component)
    return list(dict.fromkeys(key[i] for key in grid))


def _axis(grid: Grid, component: str, header: str = "{}") -> Axis:
    """One row or column per value of a key component."""
    return [(header.format(v), {component: v}) for v in _values(grid, component)]


def _cross(outer: Axis, inner: Axis, sep: str = ",") -> Axis:
    return [(f"{h1}{sep}{h2}", {**s1, **s2}) for h1, s1 in outer for h2, s2 in inner]


def _cells(grid: Grid, ds: object = None, P: object = None, x: object = None) -> ExperimentResult:
    """The cells matching every given key component, merged in grid insertion order."""
    merged = ExperimentResult(machine_description="merged")
    for (d, p, v), experiment in grid.items():
        if ds in (None, d) and P in (None, p) and x in (None, v):
            merged.instances.extend(experiment.instances)
    return merged


def _reduction(experiment: ExperimentResult, label: str = "ILP") -> str:
    """The paper's two-number cell: reduction vs Cilk / reduction vs HDagg."""
    vs_cilk = experiment.improvement(label, "Cilk")
    vs_hdagg = experiment.improvement(label, "HDagg")
    return f"{format_percent(vs_cilk)} / {format_percent(vs_hdagg)}"


def _pivot(title: str, corner: str, grid: Grid, rows: Axis, cols: Axis, cell: Cell = _reduction) -> Table:
    """One cell per row and column, over the grid cells both select."""
    table = Table(title, [corner] + [header for header, _ in cols])
    for header, row in rows:
        table.add_row(header, *(cell(_cells(grid, **row, **col)) for _, col in cols))
    return table


def _p_by_x(title: str, grid: Grid, x: str, cell: Cell = _reduction) -> Table:
    return _pivot(title, f"P \\ {x}", grid, _axis(grid, "P", "P={}"), _axis(grid, "x", x + "={:g}"), cell)


def _stage_ratios(title: str, corner: str, grid: Grid, rows: Axis, labels: Sequence[str]) -> Table:
    """Geometric-mean cost ratio of each label to Cilk, one row per selection."""
    table = Table(title, [corner] + list(labels))
    for header, row in rows:
        merged = _cells(grid, **row)
        table.add_row(header, *(f"{merged.mean_ratio(label, 'Cilk'):.3f}" for label in labels))
    return table


# ----------------------------------------------------------------------
# The views: one per paper artifact
# ----------------------------------------------------------------------
def _table1(grid: Grid) -> List[Table]:
    """Table 1: cost reduction vs Cilk / HDagg by (g, P) and by (g, dataset)."""
    return [
        _p_by_x("Table 1 (left): reduction vs Cilk / HDagg by g and P", grid, "g"),
        _pivot(
            "Table 1 (right): reduction vs Cilk / HDagg by g and dataset",
            "dataset \\ g", grid, _axis(grid, "ds"), _axis(grid, "x", "g={:g}"),
        ),
    ]


def _figure5(grid: Grid) -> List[Table]:
    """Figure 5: mean cost ratios (normalized to Cilk) per g, without NUMA."""
    return [_stage_ratios(
        "Figure 5: mean cost ratio normalized to Cilk, per g", "g", grid,
        _axis(grid, "x", "g={:g}"), ["Cilk", "HDagg", "Init", "HCcs", "ILP"],
    )]


def _table6(grid: Grid) -> List[Table]:
    """Table 6: improvement for every (g, P, dataset) combination (no NUMA)."""
    return [_pivot(
        "Table 6: reduction vs Cilk / HDagg per (g, P, dataset)", "dataset", grid,
        _axis(grid, "ds"), _cross(_axis(grid, "x", "g={:g}"), _axis(grid, "P", "P={}")),
    )]


def _table2(grid: Grid) -> List[Table]:
    """Table 2: cost reduction of the base scheduler with NUMA, by (P, delta)."""
    return [_p_by_x("Table 2: reduction vs Cilk / HDagg with NUMA, by P and delta", grid, "delta")]


def _figure6(grid: Grid) -> List[Table]:
    """Figure 6: mean cost ratios (vs Cilk) incl. the multilevel scheduler."""
    return [_stage_ratios(
        "Figure 6: mean cost ratio normalized to Cilk, per (P, delta), with NUMA", "P, delta", grid,
        _cross(_axis(grid, "P", "P={}"), _axis(grid, "x", "d={:g}"), ", "),
        ["Cilk", "HDagg", "Init", "HCcs", "ILP", "ML"],
    )]


def _table3(grid: Grid) -> List[Table]:
    """Table 3: cost reduction of the multilevel scheduler by (P, delta)."""
    return [_p_by_x(
        "Table 3: reduction of the multilevel scheduler vs Cilk / HDagg", grid, "delta",
        lambda experiment: _reduction(experiment, "ML"),
    )]


def _table10(grid: Grid) -> List[Table]:
    """Table 10: NUMA improvement for every (P, delta, dataset) combination."""
    return [_pivot(
        "Table 10: reduction vs Cilk / HDagg per (P, delta, dataset)", "dataset", grid,
        _axis(grid, "ds"), _cross(_axis(grid, "P", "P={}"), _axis(grid, "x", "d={:g}")),
    )]


def _ml_variant_table(grid: Grid, title: str, cell: Callable[[ExperimentResult, str], str]) -> List[Table]:
    """One row per multilevel variant (C15, C30, ..., C_opt), one column per (P, delta)."""
    labels = next(iter(grid.values())).labels()
    ratios = sorted(float(label[3:]) for label in labels if label.startswith("ML@"))
    variants = [(f"C{int(round(r * 100))}", f"ML@{r:g}") for r in ratios] + [("C_opt", "ML")]
    cols = _cross(_axis(grid, "P", "P={}"), _axis(grid, "x", "d={:g}"))
    table = Table(title, ["variant"] + [header for header, _ in cols])
    for name, label in variants:
        table.add_row(name, *(cell(_cells(grid, **col), label) for _, col in cols))
    return [table]


def _table13(grid: Grid) -> List[Table]:
    """Table 13: multilevel variants (C15 / C30 / C_opt) vs the baselines."""
    return _ml_variant_table(
        grid, "Table 13: multilevel reduction vs Cilk / HDagg per coarsening variant", _reduction
    )


def _table14(grid: Grid) -> List[Table]:
    """Table 14: multilevel variants vs the base scheduler."""
    return _ml_variant_table(
        grid, "Table 14: cost ratio of the multilevel scheduler to the base scheduler",
        lambda experiment, label: f"{experiment.mean_ratio(label, 'ILP'):.3f}",
    )


_SIZE_BUCKETS = ("small n", "medium n", "large n")


def _initializer_wins(grid: Grid) -> Dict[Tuple[int, str], Counter]:
    """Best-initializer counts per P and bucket: ``spmv``, or a size third of the other DAGs."""
    sizes = sorted({name: cell.instances[0].num_nodes for (name, _, _), cell in grid.items()}.values())
    lo, hi = sizes[len(sizes) // 3], sizes[(2 * len(sizes)) // 3]
    wins: Dict[Tuple[int, str], Counter] = defaultdict(Counter)
    for (name, P, _), cell in grid.items():
        (instance,) = cell.instances
        n = instance.num_nodes
        bucket = "spmv" if "spmv" in name else _SIZE_BUCKETS[(n > lo) + (n > hi)]
        wins[(P, bucket)][min(instance.initializer_costs, key=instance.initializer_costs.get)] += 1
    return wins


def _counts(counter: Counter) -> str:
    return ", ".join(f"{name}: {count}" for name, count in counter.most_common()) or "-"


def _table4(grid: Grid) -> List[Table]:
    """Table 4: how often each initialization heuristic wins on the shallow spmv DAGs."""
    wins = _initializer_wins(grid)
    table = Table("Table 4: best initializer counts on spmv training instances", ["P", "wins"])
    for P in _values(grid, "P"):
        table.add_row(f"P={P}", _counts(wins[(P, "spmv")]))
    return [table]


def _table5(grid: Grid) -> List[Table]:
    """Table 5: how often each initialization heuristic wins on the other kernels, by size."""
    wins = _initializer_wins(grid)
    Ps = _values(grid, "P")
    table = Table(
        "Table 5: best initializer counts on exp/cg/kNN training instances",
        ["size bucket"] + [f"P={P}" for P in Ps],
    )
    for bucket in _SIZE_BUCKETS:
        table.add_row(bucket, *(_counts(wins[(P, bucket)]) for P in Ps))
    return [table]


def _table7(grid: Grid) -> List[Table]:
    """Table 7: per-algorithm mean cost ratios (normalized to Cilk) for g=5."""
    table = _stage_ratios(
        "Table 7: cost ratios normalized to Cilk (g=5)", "dataset", grid, _axis(grid, "ds"),
        ["BL-EST", "ETF", "Cilk", "HDagg", "Init", "HCcs", "ILPpart", "ILP"],
    )
    table.add_note("the paper's 'ILPcs' column corresponds to the final 'ILP' column here")
    return [table]


def _table8(grid: Grid) -> List[Table]:
    """Table 8: cost reduction of the framework vs ETF on the tiny dataset."""
    return [_p_by_x(
        "Table 8: reduction vs ETF on the tiny dataset", grid, "g",
        lambda experiment: format_percent(experiment.improvement("ILP", "ETF")),
    )]


def _table9(grid: Grid) -> List[Table]:
    """Table 9: improvement for different latency values (medium dataset)."""
    machine = next(iter(grid.values())).instances[0].machine
    return [_pivot(
        f"Table 9: reduction vs Cilk / HDagg for different latency values (g={machine.g:g}, P={machine.P})",
        "latency", grid, _axis(grid, "x", "l={:g}"), [("reduction", {})],
    )]


def _table11(grid: Grid) -> List[Table]:
    """Table 11: Init+HC+HCcs on the huge dataset, without NUMA."""
    return [_p_by_x("Table 11: reduction vs Cilk / HDagg on the huge dataset (heuristics only)", grid, "g")]


def _figure7(grid: Grid) -> List[Table]:
    """Figure 7: stage cost ratios on the huge dataset, split by P."""
    return [_stage_ratios(
        "Figure 7: mean cost ratio normalized to Cilk on the huge dataset", "P", grid,
        _axis(grid, "P", "P={}"), ["Cilk", "HDagg", "Init", "HCcs"],
    )]


def _table12(grid: Grid) -> List[Table]:
    """Table 12: Init+HC+HCcs on the huge dataset with NUMA effects."""
    return [_p_by_x("Table 12: reduction vs Cilk / HDagg on the huge dataset with NUMA", grid, "delta")]


# ----------------------------------------------------------------------
# Named reproduction targets (the ``python -m repro repro`` subcommand)
# ----------------------------------------------------------------------
#: Target name -> what it regenerates.  Every entry is runnable on a laptop
#: at ``smoke`` scale; ``reduced`` / ``paper`` raise the instance counts and
#: dataset sizes and switch to the default pipeline config.  The machine
#: grids are the same at every scale.
REPRO_TARGETS: Dict[str, str] = {
    "table1": "reduction vs Cilk / HDagg without NUMA, by (g, P) and (g, dataset)",
    "table2": "reduction vs Cilk / HDagg with NUMA, by (P, delta)",
    "table3": "reduction of the multilevel scheduler, by (P, delta)",
    "table4": "best-initializer counts on the spmv training instances",
    "table5": "best-initializer counts on the exp/cg/kNN training instances",
    "table6": "no-NUMA improvement per (g, P, dataset)",
    "table7": "per-algorithm cost ratios normalized to Cilk (g=5)",
    "table8": "reduction vs ETF on the tiny dataset",
    "table9": "improvement for different latency values",
    "table10": "NUMA improvement per (P, delta, dataset)",
    "table11": "heuristics-only reduction on the huge dataset",
    "table12": "heuristics-only reduction on the huge dataset with NUMA",
    "table13": "multilevel reduction per coarsening variant",
    "table14": "multilevel-to-base cost ratio per coarsening variant",
    "fig5": "stage cost ratios per g, without NUMA",
    "fig6": "stage cost ratios per (P, delta) incl. multilevel, with NUMA",
    "fig7": "stage cost ratios on the huge dataset",
}

#: Target name -> (grid, view); :func:`reproduce` declares the grids.
_VIEWS: Dict[str, Tuple[str, Callable[[Grid], List[Table]]]] = {
    "table1": ("no-numa", _table1),
    "table2": ("numa", _table2),
    "table3": ("numa-ml", _table3),
    "table4": ("training", _table4),
    "table5": ("training", _table5),
    "table6": ("no-numa", _table6),
    "table7": ("list-g5", _table7),
    "table8": ("etf-tiny", _table8),
    "table9": ("latency", _table9),
    "table10": ("numa", _table10),
    "table11": ("huge", _table11),
    "table12": ("huge-numa", _table12),
    "table13": ("numa-ml", _table13),
    "table14": ("numa-ml", _table14),
    "fig5": ("no-numa", _figure5),
    "fig6": ("numa-ml", _figure6),
    "fig7": ("huge", _figure7),
}

#: Instances per dataset used by :func:`reproduce` at each scale.
_REPRO_MAX_INSTANCES = {"smoke": 2, "reduced": 8, "paper": None}


def main_datasets(scale: str) -> Tuple[str, ...]:
    """Datasets of the main grids (Tables 1-3, 6, 7, 10, 13, 14; Figures 5, 6) at ``scale``."""
    return ("tiny", "small") if scale == "smoke" else ("tiny", "small", "medium", "large")


def reproduce(
    target: str,
    *,
    scale: str = "smoke",
    jobs: Optional[int] = None,
    seed: int = 7,
) -> List[Table]:
    """Regenerate one paper table / figure by name (see :data:`REPRO_TARGETS`).

    ``scale`` (``smoke``, ``reduced`` or ``paper``) sets the instance
    counts, the dataset sizes and the pipeline config; the machine grids
    are the laptop-scale grids declared below at every scale.  The *shape*
    of the results reproduces the paper, absolute numbers do not (README:
    "Reproducing the paper's tables and figures").
    """
    from .datasets import build_dataset, build_training_set

    target = target.strip().lower().replace("figure", "fig")
    if target not in REPRO_TARGETS:
        raise ValueError(
            f"unknown repro target {target!r}; available: {', '.join(REPRO_TARGETS)}"
        )
    if scale not in _REPRO_MAX_INSTANCES:
        raise ValueError(f"unknown scale {scale!r}; available: {', '.join(_REPRO_MAX_INSTANCES)}")
    max_instances = _REPRO_MAX_INSTANCES[scale]
    config = PipelineConfig.fast() if scale == "smoke" else PipelineConfig()
    ml_config = MultilevelConfig(
        coarsening_ratios=(0.3, 0.15),
        min_coarse_nodes=8,
        hc_moves_per_refinement=50,
        base_pipeline=config,
    )
    heuristics = PipelineConfig.heuristics_only()
    if scale == "smoke":
        heuristics.hc_time_limit = 5.0
        heuristics.hccs_time_limit = 1.0

    def datasets(*names: str) -> Datasets:
        return {
            name: build_dataset(name, scale=scale, max_instances=max_instances, seed=seed)
            for name in names
        }

    def uniform(g_values: Sequence[float]) -> Machines:
        return {(P, g): BspMachine(P=P, g=g, l=5) for P in (2, 4) for g in g_values}

    numa = {(P, d): BspMachine.hierarchical(P=P, delta=d, g=1, l=5) for P in (4, 8) for d in (2, 4)}
    latency = {(4, l): BspMachine(P=4, g=1, l=l) for l in (2, 5, 10, 20)}
    main = main_datasets(scale)
    grids: Dict[str, Callable[[], Grid]] = {
        "no-numa": lambda: run_grid(datasets(*main), uniform((1, 5)), config, jobs=jobs),
        "list-g5": lambda: run_grid(datasets(*main), uniform((5,)), config, list_baselines=True, jobs=jobs),
        "etf-tiny": lambda: run_grid(
            datasets("tiny"), uniform((1, 5)), config, list_baselines=True, jobs=jobs
        ),
        "latency": lambda: run_grid(datasets("medium"), latency, config, jobs=jobs),
        "numa": lambda: run_grid(datasets(*main), numa, config, jobs=jobs),
        "numa-ml": lambda: run_grid(datasets(*main), numa, config, multilevel_config=ml_config, jobs=jobs),
        "huge": lambda: run_grid(datasets("huge"), uniform((1, 5)), heuristics, jobs=jobs),
        "huge-numa": lambda: run_grid(datasets("huge"), numa, heuristics, jobs=jobs),
        "training": lambda: _run_initializers(
            build_training_set(scale=scale, seed=seed), uniform((1, 5)), config, jobs=jobs
        ),
    }
    grid, view = _VIEWS[target]
    return view(grids[grid]())
