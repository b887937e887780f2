"""Regeneration of every table and figure of the paper's evaluation.

Each ``make_*`` function runs the relevant experiment configuration over the
datasets it is given and returns one or more :class:`~repro.experiments.report.Table`
objects whose rows mirror the corresponding table/figure of the paper.
:func:`reproduce` is the one place that picks each artifact's datasets and
grid; ``repro repro`` and ``benchmarks/bench_tables.py`` both run it (see
the README section "Reproducing the paper's tables and figures").

Figures are bar charts of mean cost ratios in the paper; here they are
rendered as tables with one column per bar ("Cilk", "HDagg", "Init", "HCcs",
"ILP", optionally "ML"), normalized to the Cilk baseline exactly like the
paper's figures.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..pipeline.config import MultilevelConfig, PipelineConfig
from .report import Table, format_percent
from .runner import ExperimentResult, run_experiment, stage_ratio_summary

__all__ = [
    "make_table1_no_numa",
    "make_figure5_stage_ratios",
    "make_table2_numa",
    "make_figure6_numa_with_multilevel",
    "make_table3_multilevel",
    "make_tables_4_and_5_initializers",
    "make_table6_no_numa_detail",
    "make_table7_algorithm_ratios",
    "make_table8_vs_etf",
    "make_table9_latency",
    "make_table10_numa_detail",
    "make_table11_huge",
    "make_figure7_huge_stages",
    "make_table12_huge_numa",
    "make_tables_13_and_14_multilevel_detail",
    "REPRO_TARGETS",
    "reproduce",
]

Datasets = Dict[str, List[ComputationalDAG]]


def _improvement_cell(experiment: ExperimentResult, label: str = "ILP") -> str:
    """The paper's two-number cell: reduction vs Cilk / reduction vs HDagg."""
    vs_cilk = experiment.improvement(label, "Cilk")
    vs_hdagg = experiment.improvement(label, "HDagg")
    return f"{format_percent(vs_cilk)} / {format_percent(vs_hdagg)}"


def _merge(experiments: Iterable[ExperimentResult]) -> ExperimentResult:
    merged = ExperimentResult(machine_description="merged")
    for exp in experiments:
        merged.instances.extend(exp.instances)
    return merged


# ----------------------------------------------------------------------
# Table 1 + Figure 5 + Table 6: the no-NUMA comparison
# ----------------------------------------------------------------------
def _run_no_numa_grid(
    datasets: Datasets,
    P_values: Sequence[int],
    g_values: Sequence[float],
    latency: float,
    config: Optional[PipelineConfig],
    include_list_baselines: bool = False,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, float, int], ExperimentResult]:
    """Run the framework on every (dataset, g, P) combination without NUMA."""
    results: Dict[Tuple[str, float, int], ExperimentResult] = {}
    for ds_name, dags in datasets.items():
        for g in g_values:
            for P in P_values:
                machine = BspMachine(P=P, g=g, l=latency)
                results[(ds_name, g, P)] = run_experiment(
                    dags,
                    machine,
                    pipeline_config=config,
                    include_list_baselines=include_list_baselines,
                    jobs=jobs,
                )
    return results


def make_table1_no_numa(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, float, int], ExperimentResult]] = None,
) -> Tuple[Table, Table, Dict[Tuple[str, float, int], ExperimentResult]]:
    """Table 1: cost reduction vs Cilk / HDagg by (g, P) and by (g, dataset)."""
    if grid is None:
        grid = _run_no_numa_grid(datasets, P_values, g_values, latency, config, jobs=jobs)

    by_p = Table("Table 1 (left): reduction vs Cilk / HDagg by g and P", ["P \\ g"] + [f"g={g:g}" for g in g_values])
    for P in P_values:
        row = [f"P={P}"]
        for g in g_values:
            merged = _merge(grid[(ds, g, P)] for ds in datasets)
            row.append(_improvement_cell(merged))
        by_p.add_row(*row)

    by_ds = Table(
        "Table 1 (right): reduction vs Cilk / HDagg by g and dataset",
        ["dataset \\ g"] + [f"g={g:g}" for g in g_values],
    )
    for ds_name in datasets:
        row = [ds_name]
        for g in g_values:
            merged = _merge(grid[(ds_name, g, P)] for P in P_values)
            row.append(_improvement_cell(merged))
        by_ds.add_row(*row)
    return by_p, by_ds, grid


def make_figure5_stage_ratios(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, float, int], ExperimentResult]] = None,
) -> Tuple[Table, Dict[Tuple[str, float, int], ExperimentResult]]:
    """Figure 5: mean cost ratios (normalized to Cilk) per g, without NUMA."""
    if grid is None:
        grid = _run_no_numa_grid(datasets, P_values, g_values, latency, config, jobs=jobs)
    labels = ["Cilk", "HDagg", "Init", "HCcs", "ILP"]
    table = Table("Figure 5: mean cost ratio normalized to Cilk, per g", ["g"] + labels)
    for g in g_values:
        merged = _merge(grid[(ds, g, P)] for ds in datasets for P in P_values)
        summary = stage_ratio_summary(merged, "Cilk", labels)
        table.add_row(f"g={g:g}", *[f"{summary[l]:.3f}" for l in labels])
    return table, grid


def make_table6_no_numa_detail(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, float, int], ExperimentResult]] = None,
) -> Tuple[Table, Dict[Tuple[str, float, int], ExperimentResult]]:
    """Table 6: improvement for every (g, P, dataset) combination (no NUMA)."""
    if grid is None:
        grid = _run_no_numa_grid(datasets, P_values, g_values, latency, config, jobs=jobs)
    headers = ["dataset"] + [f"g={g:g},P={P}" for g in g_values for P in P_values]
    table = Table("Table 6: reduction vs Cilk / HDagg per (g, P, dataset)", headers)
    for ds_name in datasets:
        row = [ds_name]
        for g in g_values:
            for P in P_values:
                row.append(_improvement_cell(grid[(ds_name, g, P)]))
        table.add_row(*row)
    return table, grid


# ----------------------------------------------------------------------
# NUMA experiments: Table 2, Figure 6, Table 3, Table 10, Tables 13/14
# ----------------------------------------------------------------------
def _run_numa_grid(
    datasets: Datasets,
    P_values: Sequence[int],
    delta_values: Sequence[float],
    g: float,
    latency: float,
    config: Optional[PipelineConfig],
    multilevel_config: Optional[MultilevelConfig],
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, int, float], ExperimentResult]:
    results: Dict[Tuple[str, int, float], ExperimentResult] = {}
    for ds_name, dags in datasets.items():
        for P in P_values:
            for delta in delta_values:
                machine = BspMachine.hierarchical(P=P, delta=delta, g=g, l=latency)
                results[(ds_name, P, delta)] = run_experiment(
                    dags,
                    machine,
                    pipeline_config=config,
                    include_list_baselines=False,
                    multilevel_config=multilevel_config,
                    jobs=jobs,
                )
    return results


def make_table2_numa(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (8, 16),
    delta_values: Sequence[float] = (2, 3, 4),
    g: float = 1,
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, int, float], ExperimentResult]] = None,
) -> Tuple[Table, Dict[Tuple[str, int, float], ExperimentResult]]:
    """Table 2: cost reduction of the base scheduler with NUMA, by (P, delta)."""
    if grid is None:
        grid = _run_numa_grid(datasets, P_values, delta_values, g, latency, config, None, jobs=jobs)
    table = Table(
        "Table 2: reduction vs Cilk / HDagg with NUMA, by P and delta",
        ["P \\ delta"] + [f"delta={d:g}" for d in delta_values],
    )
    for P in P_values:
        row = [f"P={P}"]
        for delta in delta_values:
            merged = _merge(grid[(ds, P, delta)] for ds in datasets)
            row.append(_improvement_cell(merged))
        table.add_row(*row)
    return table, grid


def make_figure6_numa_with_multilevel(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (8, 16),
    delta_values: Sequence[float] = (2, 3, 4),
    g: float = 1,
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    multilevel_config: Optional[MultilevelConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, int, float], ExperimentResult]] = None,
) -> Tuple[Table, Dict[Tuple[str, int, float], ExperimentResult]]:
    """Figure 6: mean cost ratios (vs Cilk) incl. the multilevel scheduler."""
    if multilevel_config is None:
        multilevel_config = MultilevelConfig(base_pipeline=config or PipelineConfig.fast())
    if grid is None:
        grid = _run_numa_grid(datasets, P_values, delta_values, g, latency, config, multilevel_config, jobs=jobs)
    labels = ["Cilk", "HDagg", "Init", "HCcs", "ILP", "ML"]
    table = Table(
        "Figure 6: mean cost ratio normalized to Cilk, per (P, delta), with NUMA",
        ["P, delta"] + labels,
    )
    for P in P_values:
        for delta in delta_values:
            merged = _merge(grid[(ds, P, delta)] for ds in datasets)
            summary = stage_ratio_summary(merged, "Cilk", labels)
            table.add_row(
                f"P={P}, d={delta:g}",
                *[f"{summary.get(l, float('nan')):.3f}" for l in labels],
            )
    return table, grid


def make_table3_multilevel(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (8, 16),
    delta_values: Sequence[float] = (2, 3, 4),
    g: float = 1,
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    multilevel_config: Optional[MultilevelConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, int, float], ExperimentResult]] = None,
) -> Tuple[Table, Dict[Tuple[str, int, float], ExperimentResult]]:
    """Table 3: cost reduction of the multilevel scheduler by (P, delta)."""
    if multilevel_config is None:
        multilevel_config = MultilevelConfig(base_pipeline=config or PipelineConfig.fast())
    if grid is None:
        grid = _run_numa_grid(datasets, P_values, delta_values, g, latency, config, multilevel_config, jobs=jobs)
    table = Table(
        "Table 3: reduction of the multilevel scheduler vs Cilk / HDagg",
        ["P \\ delta"] + [f"delta={d:g}" for d in delta_values],
    )
    for P in P_values:
        row = [f"P={P}"]
        for delta in delta_values:
            merged = _merge(grid[(ds, P, delta)] for ds in datasets)
            row.append(_improvement_cell(merged, label="ML"))
        table.add_row(*row)
    return table, grid


def make_table10_numa_detail(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (8, 16),
    delta_values: Sequence[float] = (2, 3, 4),
    g: float = 1,
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, int, float], ExperimentResult]] = None,
) -> Tuple[Table, Dict[Tuple[str, int, float], ExperimentResult]]:
    """Table 10: NUMA improvement for every (P, delta, dataset) combination."""
    if grid is None:
        grid = _run_numa_grid(datasets, P_values, delta_values, g, latency, config, None, jobs=jobs)
    headers = ["dataset"] + [f"P={P},d={d:g}" for P in P_values for d in delta_values]
    table = Table("Table 10: reduction vs Cilk / HDagg per (P, delta, dataset)", headers)
    for ds_name in datasets:
        row = [ds_name]
        for P in P_values:
            for delta in delta_values:
                row.append(_improvement_cell(grid[(ds_name, P, delta)]))
        table.add_row(*row)
    return table, grid


def make_tables_13_and_14_multilevel_detail(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (8, 16),
    delta_values: Sequence[float] = (2, 3, 4),
    g: float = 1,
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    multilevel_config: Optional[MultilevelConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[str, int, float], ExperimentResult]] = None,
) -> Tuple[Table, Table, Dict[Tuple[str, int, float], ExperimentResult]]:
    """Tables 13 and 14: multilevel variants (C15 / C30 / C_opt) vs baselines
    and vs the base scheduler."""
    if multilevel_config is None:
        multilevel_config = MultilevelConfig(base_pipeline=config or PipelineConfig.fast())
    if grid is None:
        grid = _run_numa_grid(datasets, P_values, delta_values, g, latency, config, multilevel_config, jobs=jobs)
    ratios = sorted(multilevel_config.coarsening_ratios)
    variant_labels = [f"ML@{r:g}" for r in ratios] + ["ML"]
    variant_names = [f"C{int(round(r * 100))}" for r in ratios] + ["C_opt"]

    t13 = Table(
        "Table 13: multilevel reduction vs Cilk / HDagg per coarsening variant",
        ["variant"] + [f"P={P},d={d:g}" for P in P_values for d in delta_values],
    )
    t14 = Table(
        "Table 14: cost ratio of the multilevel scheduler to the base scheduler",
        ["variant"] + [f"P={P},d={d:g}" for P in P_values for d in delta_values],
    )
    for label, name in zip(variant_labels, variant_names):
        row13 = [name]
        row14 = [name]
        for P in P_values:
            for delta in delta_values:
                merged = _merge(grid[(ds, P, delta)] for ds in datasets)
                row13.append(_improvement_cell(merged, label=label))
                row14.append(f"{merged.mean_ratio(label, 'ILP'):.3f}")
        t13.add_row(*row13)
        t14.add_row(*row14)
    return t13, t14, grid


# ----------------------------------------------------------------------
# Tables 4 / 5: initializer comparison on the training set
# ----------------------------------------------------------------------
def make_tables_4_and_5_initializers(
    training_set: Sequence[ComputationalDAG],
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
) -> Tuple[Table, Table]:
    """Tables 4 and 5: how often each initialization heuristic wins.

    Table 4 covers the shallow spmv instances (split by P); Table 5 covers
    the remaining kernels (split by P and by DAG size).
    """
    from .runner import PIPELINE_ITEM, ParallelRunner, WorkItem

    if config is None:
        config = PipelineConfig.fast()
    wins_spmv: Dict[int, Counter] = {P: Counter() for P in P_values}
    wins_other: Dict[Tuple[int, str], Counter] = {}
    size_buckets = ["small n", "medium n", "large n"]

    def bucket_of(n: int) -> str:
        sizes = sorted(d.n for d in training_set)
        lo = sizes[len(sizes) // 3]
        hi = sizes[(2 * len(sizes)) // 3]
        if n <= lo:
            return size_buckets[0]
        if n <= hi:
            return size_buckets[1]
        return size_buckets[2]

    combos = [
        (dag, P, g)
        for dag in training_set
        for P in P_values
        for g in g_values
    ]
    items = [
        WorkItem(
            index=k,
            instance=k,
            dag=dag,
            machine=BspMachine(P=P, g=g, l=latency),
            scheduler=PIPELINE_ITEM,
            pipeline_config=config,
        )
        for k, (dag, P, g) in enumerate(combos)
    ]
    results = ParallelRunner(jobs).execute(items)
    for (dag, P, g), result in zip(combos, results):
        best = min(result.initializer_costs, key=result.initializer_costs.get)
        if "spmv" in dag.name:
            wins_spmv[P][best] += 1
        else:
            wins_other.setdefault((P, bucket_of(dag.n)), Counter())[best] += 1

    def counter_cell(counter: Counter) -> str:
        if not counter:
            return "-"
        return ", ".join(f"{name}: {count}" for name, count in counter.most_common())

    t4 = Table("Table 4: best initializer counts on spmv training instances", ["P", "wins"])
    for P in P_values:
        t4.add_row(f"P={P}", counter_cell(wins_spmv[P]))

    t5 = Table(
        "Table 5: best initializer counts on exp/cg/kNN training instances",
        ["size bucket"] + [f"P={P}" for P in P_values],
    )
    for bucket in size_buckets:
        row = [bucket]
        for P in P_values:
            row.append(counter_cell(wins_other.get((P, bucket), Counter())))
        t5.add_row(*row)
    return t4, t5


# ----------------------------------------------------------------------
# Table 7 / Table 8: algorithm-by-algorithm ratios and the ETF comparison
# ----------------------------------------------------------------------
def make_table7_algorithm_ratios(
    datasets: Datasets,
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g: float = 5,
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
) -> Table:
    """Table 7: per-algorithm mean cost ratios (normalized to Cilk) for g=5."""
    labels = ["BL-EST", "ETF", "Cilk", "HDagg", "Init", "HCcs", "ILPpart", "ILP"]
    table = Table("Table 7: cost ratios normalized to Cilk (g=5)", ["dataset"] + labels)
    for ds_name, dags in datasets.items():
        merged = _merge(
            run_experiment(
                dags,
                BspMachine(P=P, g=g, l=latency),
                pipeline_config=config,
                include_list_baselines=True,
                jobs=jobs,
            )
            for P in P_values
        )
        summary = stage_ratio_summary(merged, "Cilk", labels)
        table.add_row(ds_name, *[f"{summary[l]:.3f}" for l in labels])
    table.add_note("the paper's 'ILPcs' column corresponds to the final 'ILP' column here")
    return table


def make_table8_vs_etf(
    tiny_dags: Sequence[ComputationalDAG],
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
) -> Table:
    """Table 8: cost reduction of the framework vs ETF on the tiny dataset."""
    table = Table("Table 8: reduction vs ETF on the tiny dataset", ["P \\ g"] + [f"g={g:g}" for g in g_values])
    for P in P_values:
        row = [f"P={P}"]
        for g in g_values:
            machine = BspMachine(P=P, g=g, l=latency)
            experiment = run_experiment(
                tiny_dags, machine, pipeline_config=config, include_list_baselines=True,
                jobs=jobs,
            )
            row.append(format_percent(experiment.improvement("ILP", "ETF")))
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# Table 9: the role of latency
# ----------------------------------------------------------------------
def make_table9_latency(
    dags: Sequence[ComputationalDAG],
    *,
    latencies: Sequence[float] = (2, 5, 10, 20),
    P: int = 8,
    g: float = 1,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
) -> Table:
    """Table 9: improvement for different latency values (medium dataset)."""
    table = Table(
        "Table 9: reduction vs Cilk / HDagg for different latency values (g=1, P=8)",
        ["latency"] + ["reduction"],
    )
    for latency in latencies:
        machine = BspMachine(P=P, g=g, l=latency)
        experiment = run_experiment(
            dags, machine, pipeline_config=config, include_list_baselines=False, jobs=jobs
        )
        table.add_row(f"l={latency:g}", _improvement_cell(experiment))
    return table


# ----------------------------------------------------------------------
# The huge dataset: Table 11, Figure 7, Table 12
# ----------------------------------------------------------------------
def make_table11_huge(
    huge_dags: Sequence[ComputationalDAG],
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
) -> Tuple[Table, Dict[Tuple[float, int], ExperimentResult]]:
    """Table 11: Init+HC+HCcs on the huge dataset, without NUMA."""
    if config is None:
        config = PipelineConfig.heuristics_only()
    grid: Dict[Tuple[float, int], ExperimentResult] = {}
    table = Table(
        "Table 11: reduction vs Cilk / HDagg on the huge dataset (heuristics only)",
        ["P \\ g"] + [f"g={g:g}" for g in g_values],
    )
    for P in P_values:
        row = [f"P={P}"]
        for g in g_values:
            machine = BspMachine(P=P, g=g, l=latency)
            experiment = run_experiment(
                huge_dags, machine, pipeline_config=config, include_list_baselines=False,
                jobs=jobs,
            )
            grid[(g, P)] = experiment
            row.append(_improvement_cell(experiment))
        table.add_row(*row)
    return table, grid


def make_figure7_huge_stages(
    huge_dags: Sequence[ComputationalDAG],
    *,
    P_values: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
    grid: Optional[Dict[Tuple[float, int], ExperimentResult]] = None,
) -> Table:
    """Figure 7: stage cost ratios on the huge dataset, split by P."""
    if config is None:
        config = PipelineConfig.heuristics_only()
    labels = ["Cilk", "HDagg", "Init", "HCcs"]
    table = Table("Figure 7: mean cost ratio normalized to Cilk on the huge dataset", ["P"] + labels)
    for P in P_values:
        experiments = []
        for g in g_values:
            if grid is not None and (g, P) in grid:
                experiments.append(grid[(g, P)])
            else:
                machine = BspMachine(P=P, g=g, l=latency)
                experiments.append(
                    run_experiment(
                        huge_dags, machine, pipeline_config=config,
                        include_list_baselines=False, jobs=jobs,
                    )
                )
        merged = _merge(experiments)
        summary = stage_ratio_summary(merged, "Cilk", labels)
        table.add_row(f"P={P}", *[f"{summary[l]:.3f}" for l in labels])
    return table


def make_table12_huge_numa(
    huge_dags: Sequence[ComputationalDAG],
    *,
    P_values: Sequence[int] = (8, 16),
    delta_values: Sequence[float] = (2, 3, 4),
    g: float = 1,
    latency: float = 5,
    config: Optional[PipelineConfig] = None,
    jobs: Optional[int] = None,
) -> Table:
    """Table 12: Init+HC+HCcs on the huge dataset with NUMA effects."""
    if config is None:
        config = PipelineConfig.heuristics_only()
    table = Table(
        "Table 12: reduction vs Cilk / HDagg on the huge dataset with NUMA",
        ["P \\ delta"] + [f"delta={d:g}" for d in delta_values],
    )
    for P in P_values:
        row = [f"P={P}"]
        for delta in delta_values:
            machine = BspMachine.hierarchical(P=P, delta=delta, g=g, l=latency)
            experiment = run_experiment(
                huge_dags, machine, pipeline_config=config, include_list_baselines=False,
                jobs=jobs,
            )
            row.append(_improvement_cell(experiment))
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# Named reproduction targets (the ``python -m repro repro`` subcommand)
# ----------------------------------------------------------------------
#: Target name -> what it regenerates.  Every entry is runnable on a laptop
#: at ``smoke`` scale; ``reduced`` / ``paper`` raise instance counts and
#: grid sizes toward the paper's setup.
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

    The parameter grids are the reduced laptop-scale grids also used by the
    benchmark harness; the *shape* of the results reproduces the paper,
    absolute numbers do not (README: "Reproducing the paper's tables and figures").
    """
    from .datasets import build_dataset, build_training_set

    target = target.strip().lower().replace("figure", "fig")
    if target not in REPRO_TARGETS:
        raise ValueError(
            f"unknown repro target {target!r}; available: {', '.join(REPRO_TARGETS)}"
        )
    max_instances = _REPRO_MAX_INSTANCES.get(scale, 2)
    config = PipelineConfig.fast() if scale == "smoke" else PipelineConfig()

    def datasets(*names: str) -> Datasets:
        return {
            name: build_dataset(name, scale=scale, max_instances=max_instances, seed=seed)
            for name in names
        }

    main = main_datasets(scale)
    no_numa_grid = dict(P_values=(2, 4), g_values=(1, 5), latency=5, config=config, jobs=jobs)
    numa_grid = dict(P_values=(4, 8), delta_values=(2, 4), g=1, latency=5, config=config, jobs=jobs)
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

    if target == "table1":
        by_p, by_ds, _ = make_table1_no_numa(datasets(*main), **no_numa_grid)
        return [by_p, by_ds]
    if target == "fig5":
        table, _ = make_figure5_stage_ratios(datasets(*main), **no_numa_grid)
        return [table]
    if target == "table6":
        table, _ = make_table6_no_numa_detail(datasets(*main), **no_numa_grid)
        return [table]
    if target == "table2":
        table, _ = make_table2_numa(datasets(*main), **numa_grid)
        return [table]
    if target == "fig6":
        table, _ = make_figure6_numa_with_multilevel(
            datasets(*main), multilevel_config=ml_config, **numa_grid
        )
        return [table]
    if target == "table3":
        table, _ = make_table3_multilevel(
            datasets(*main), multilevel_config=ml_config, **numa_grid
        )
        return [table]
    if target == "table10":
        table, _ = make_table10_numa_detail(datasets(*main), **numa_grid)
        return [table]
    if target in ("table13", "table14"):
        t13, t14, _ = make_tables_13_and_14_multilevel_detail(
            datasets(*main), multilevel_config=ml_config, **numa_grid
        )
        return [t13] if target == "table13" else [t14]
    if target in ("table4", "table5"):
        t4, t5 = make_tables_4_and_5_initializers(
            build_training_set(scale=scale, seed=seed),
            P_values=(2, 4),
            g_values=(1, 5),
            latency=5,
            config=config,
            jobs=jobs,
        )
        return [t4] if target == "table4" else [t5]
    if target == "table7":
        return [
            make_table7_algorithm_ratios(
                datasets(*main), P_values=(2, 4), g=5, latency=5, config=config, jobs=jobs
            )
        ]
    if target == "table8":
        return [
            make_table8_vs_etf(
                datasets("tiny")["tiny"],
                P_values=(2, 4),
                g_values=(1, 5),
                latency=5,
                config=config,
                jobs=jobs,
            )
        ]
    if target == "table9":
        return [
            make_table9_latency(
                datasets("medium")["medium"],
                latencies=(2, 5, 10, 20),
                P=4,
                g=1,
                config=config,
                jobs=jobs,
            )
        ]
    huge = datasets("huge")["huge"]
    if target == "table11":
        table, _ = make_table11_huge(
            huge, P_values=(2, 4), g_values=(1, 5), latency=5, config=heuristics, jobs=jobs
        )
        return [table]
    if target == "fig7":
        return [
            make_figure7_huge_stages(
                huge, P_values=(2, 4), g_values=(1, 5), latency=5, config=heuristics, jobs=jobs
            )
        ]
    if target == "table12":
        return [
            make_table12_huge_numa(
                huge, P_values=(4, 8), delta_values=(2, 4), g=1, latency=5,
                config=heuristics, jobs=jobs,
            )
        ]
    raise AssertionError(f"unhandled target {target!r}")  # pragma: no cover
