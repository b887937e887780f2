"""Parameter sweeps over machines and datasets, with CSV export.

The paper's evaluation is a grid of (dataset, P, g, l, Delta) combinations —
extended here with the memory-constrained model's per-processor
``memory_bound`` dimension; this module provides the long-form version of
that grid: one record per (instance, machine, algorithm) with its cost and
its ratio to a chosen baseline.  The records can be exported to CSV for
external plotting, which is how the figures of the paper would typically be
drawn.

Baseline labels are resolved through the registry's canonical-label mapping
(case-insensitive, see :func:`repro.experiments.runner.resolve_cost_label`):
``baseline="cilk"`` and ``baseline="Cilk"`` are the same request, a baseline
that was not measured raises :class:`ValueError`, and a legitimately
zero-cost baseline yields ``inf`` ratios instead of NaN.

Memory-bounded machines need memory-aware algorithms (the classical
baselines produce schedules that fail validation when the bound binds), so
such grids are expressed with ``scheduler_specs``: a list of registry spec
strings (``["greedy-mem", "hc(init=greedy-mem)"]``) run instead of the
default baseline/pipeline label set.

The portfolio scheduler is a sweepable column like any other spec string —
``scheduler_specs=["cilk", "portfolio"]`` records the per-instance selection
(and, with a cache directory configured, shares its solution cache across
the whole grid).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..pipeline.config import MultilevelConfig, PipelineConfig
from ..spec import MachineSpec
from .runner import (
    ParallelRunner,
    _cost_ratio,
    _merge_instance,
    resolve_cost_label,
    run_experiment,
    spec_items,
)

__all__ = ["SweepRecord", "MachineSpec", "ratio_to_baseline", "sweep", "records_to_csv"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class SweepRecord:
    """One (instance, machine, algorithm) measurement."""

    dataset: str
    dag_name: str
    num_nodes: int
    P: int
    g: float
    l: float
    delta: float
    memory_bound: float
    algorithm: str
    cost: float
    ratio_to_baseline: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "dag": self.dag_name,
            "n": self.num_nodes,
            "P": self.P,
            "g": self.g,
            "l": self.l,
            "delta": self.delta,
            "memory_bound": self.memory_bound,
            "algorithm": self.algorithm,
            "cost": self.cost,
            "ratio_to_baseline": self.ratio_to_baseline,
        }


def ratio_to_baseline(costs: Dict[str, float], algorithm: str, baseline: str) -> float:
    """Ratio of ``algorithm``'s cost to ``baseline``'s, both resolved
    case-insensitively against ``costs``.

    A baseline that was never measured is a user error and raises
    :class:`ValueError`; a zero-cost baseline yields ``inf`` for any
    positive cost (and ``1.0`` for an equally free one) — never NaN.
    """
    try:
        baseline_cost = costs[resolve_cost_label(costs, baseline)]
    except KeyError as exc:
        raise ValueError(
            f"baseline {baseline!r} was not measured; recorded algorithms: "
            f"{', '.join(costs) if costs else 'none'}"
        ) from exc
    cost = costs[resolve_cost_label(costs, algorithm)]
    return _cost_ratio(cost, baseline_cost)


def sweep(
    datasets: Dict[str, Sequence[ComputationalDAG]],
    machines: Iterable[MachineSpec],
    *,
    baseline: str = "Cilk",
    pipeline_config: Optional[PipelineConfig] = None,
    multilevel_config: Optional[MultilevelConfig] = None,
    include_list_baselines: bool = False,
    baselines_only: bool = False,
    scheduler_specs: Optional[Sequence[str]] = None,
) -> List[SweepRecord]:
    """Run the full grid and return one record per algorithm measurement.

    With ``scheduler_specs`` the default baseline/pipeline label set is
    replaced by the given registry spec strings (one cost per spec, keyed by
    the spec string) — the entry point for memory-bounded grids, where only
    memory-aware schedulers produce valid schedules.  ``baseline`` then
    refers to one of the specs (case-insensitively).  The grid runs serially.
    """
    records: List[SweepRecord] = []
    for spec in machines:
        machine = spec.build()
        meta = spec.describe()
        for dataset_name, dags in datasets.items():
            if scheduler_specs is not None:
                results = [
                    _merge_instance(
                        dag, machine, ParallelRunner(1).execute(spec_items(dag, machine, scheduler_specs))
                    )
                    for dag in dags
                ]
            else:
                results = run_experiment(
                    dags,
                    machine,
                    pipeline_config=pipeline_config,
                    include_list_baselines=include_list_baselines,
                    multilevel_config=multilevel_config,
                    baselines_only=baselines_only,
                    jobs=1,
                ).instances
            for dag, result in zip(dags, results):
                for algorithm, cost in result.costs.items():
                    ratio = ratio_to_baseline(result.costs, algorithm, baseline)
                    records.append(
                        SweepRecord(
                            dataset=dataset_name,
                            dag_name=dag.name,
                            num_nodes=dag.n,
                            P=int(meta["P"]),
                            g=float(meta["g"]),
                            l=float(meta["l"]),
                            delta=float(meta["delta"]),
                            memory_bound=float(meta["memory_bound"]),
                            algorithm=algorithm,
                            cost=float(cost),
                            ratio_to_baseline=float(ratio),
                        )
                    )
    return records


def records_to_csv(records: Sequence[SweepRecord], path: PathLike) -> None:
    """Write sweep records to a CSV file (one row per record)."""
    records = list(records)
    path = Path(path)
    fieldnames = list(records[0].as_dict().keys()) if records else [
        "dataset", "dag", "n", "P", "g", "l", "delta", "memory_bound",
        "algorithm", "cost", "ratio_to_baseline",
    ]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            writer.writerow(record.as_dict())
