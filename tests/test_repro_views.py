"""Pinned renderings of every ``repro repro`` target, without solving anything.

``reproduce(target)`` runs a grid of experiments and renders one paper table
or figure from it.  This test replaces the solver and the dataset builders
with stubs, so that every target renders in milliseconds, and compares a
digest of the rendered text with constants.  Each stubbed cost is a hash of
its work item (scheduler, label, DAG, machine including its NUMA matrix, and
configs), so a pin moves when a target runs a different grid or formats a
cell differently.  The stubbed aggregate weights each ratio by its position,
so a pin also moves when a merged cell lists its instances in another order:
with the real geometric mean that order shows only in the last bits, which
the rendered percentages and ratios round away.

If a change alters the rendering on purpose, record the new constants with
``PYTHONPATH=src python tests/test_repro_views.py`` and say why in the
change log.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple
from unittest import mock

import pytest

from repro.experiments import datasets, runner
from repro.experiments import tables as paper_tables
from repro.experiments.runner import MULTILEVEL_ITEM, PIPELINE_ITEM, WorkItem, WorkItemResult
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import spmv_dag

SCALES = ("smoke", "reduced")

#: sha256 prefixes of the rendered text, keyed by (target, scale).
EXPECTED: Dict[Tuple[str, str], str] = {
    ("table1", "smoke"): "4941ce89279d17e2",
    ("table1", "reduced"): "51e0c946f4357b82",
    ("table2", "smoke"): "c1fc194cacf9e78e",
    ("table2", "reduced"): "6e96f512ce28b4ce",
    ("table3", "smoke"): "7f25d1f3217e6473",
    ("table3", "reduced"): "452b39be144c4198",
    ("table4", "smoke"): "75e9e8688053ce60",
    ("table4", "reduced"): "57fc08426fe86ba6",
    ("table5", "smoke"): "ad714d0d9cfaed7a",
    ("table5", "reduced"): "95bd212ce83187c8",
    ("table6", "smoke"): "e0e47f275de5ae75",
    ("table6", "reduced"): "db184d2dd62680d2",
    ("table7", "smoke"): "1a9384ec68b5627c",
    ("table7", "reduced"): "60248db10162327c",
    ("table8", "smoke"): "88153d1382709fe9",
    ("table8", "reduced"): "6393d4e332999801",
    ("table9", "smoke"): "6cbf9db2ffa6062c",
    ("table9", "reduced"): "7b399e4a25bfdaef",
    ("table10", "smoke"): "c4f6178d8ac74023",
    ("table10", "reduced"): "4e0104af691fe498",
    ("table11", "smoke"): "812beb02a16fcbfb",
    ("table11", "reduced"): "f4c7164f1420d4e2",
    ("table12", "smoke"): "3b7604119cf86c44",
    ("table12", "reduced"): "816bff4f5f15c42c",
    ("table13", "smoke"): "2c38ff265a6cbf45",
    ("table13", "reduced"): "399c4b31da4e7fa4",
    ("table14", "smoke"): "35351a50bfd55ebd",
    ("table14", "reduced"): "0585acb41314321a",
    ("fig5", "smoke"): "379bbe11dad9edd4",
    ("fig5", "reduced"): "600ebf59ddd056e8",
    ("fig6", "smoke"): "7cac2b6df83af85b",
    ("fig6", "reduced"): "89ffeefd6c88b96c",
    ("fig7", "smoke"): "57dad488b489b1b6",
    ("fig7", "reduced"): "6ed41a35670b1eda",
}


def fake_execute(item: WorkItem) -> WorkItemResult:
    """Costs derived from a hash of the work item, for every label the views read."""
    machine = item.machine
    digest = hashlib.sha256()
    for part in (
        item.scheduler, item.label, item.dag.name, item.dag.n, machine.P, machine.g, machine.l,
        item.pipeline_config, item.multilevel_config,
    ):
        digest.update(repr(part).encode())
    digest.update(machine.numa.tobytes())
    raw = digest.digest()

    def cost(k: int) -> float:
        return 50.0 + 200.0 * int.from_bytes(raw[2 * k:2 * k + 2], "big") / 65535.0

    result = WorkItemResult(
        index=item.index, instance=item.instance, costs={},
        scheduler=item.scheduler, dag_name=item.dag.name,
    )
    if item.scheduler == PIPELINE_ITEM:
        ilp = cost(0)
        part = ilp + cost(1) / 10
        hccs = part + cost(2) / 10
        result.costs = {"Init": hccs + cost(3) / 10, "HCcs": hccs, "ILPpart": part, "ILP": ilp}
        result.initializer_costs = {name: cost(4 + k) for k, name in enumerate(("BSPg", "Source", "ILPinit"))}
        result.best_initializer = min(result.initializer_costs, key=result.initializer_costs.get)
    elif item.scheduler == MULTILEVEL_ITEM:
        assert item.multilevel_config is not None
        per_ratio = {
            f"ML@{r:g}": cost(1 + k) for k, r in enumerate(item.multilevel_config.coarsening_ratios)
        }
        result.costs = {"ML": min(per_ratio.values()), **per_ratio}
    else:
        assert item.label is not None
        result.costs = {item.label: cost(0)}
    return result


def fake_dataset(
    name: str, scale: str = "reduced", *, seed: int = 0, max_instances: Optional[int] = None
) -> List[ComputationalDAG]:
    dags = [spmv_dag(4 + k, q=0.3, seed=k, name=f"{name}_{scale}_{seed}_{k}") for k in range(3)]
    return dags[:max_instances]


def fake_training_set(scale: str = "reduced", seed: int = 100) -> List[ComputationalDAG]:
    kinds = ("spmv", "spmv", "exp", "cg", "knn", "exp")
    return [
        spmv_dag(3 + k, q=0.3, seed=k, name=f"train_{kind}_{scale}_{seed}_{k}")
        for k, kind in enumerate(kinds)
    ]


def weighted_geometric_mean(values: Iterable[float]) -> float:
    vals = list(values)
    weights = range(1, len(vals) + 1)
    return math.exp(sum(w * math.log(v) for w, v in zip(weights, vals)) / sum(weights)) if vals else 0.0


@contextmanager
def stubbed() -> Iterator[None]:
    with mock.patch.object(runner, "_execute_work_item", fake_execute), \
            mock.patch.object(runner, "geometric_mean", weighted_geometric_mean), \
            mock.patch.object(datasets, "build_dataset", fake_dataset), \
            mock.patch.object(datasets, "build_training_set", fake_training_set):
        yield


def render(target: str, scale: str) -> str:
    with stubbed():
        tables = paper_tables.reproduce(target, scale=scale, jobs=1)
    return "\n\n".join(table.to_text() for table in tables)


def render_digest(target: str, scale: str) -> str:
    return hashlib.sha256(render(target, scale).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(EXPECTED), ids="-".join)
def test_view_matches_pinned_digest(key):
    assert render_digest(*key) == EXPECTED[key]


def test_every_target_is_pinned():
    assert set(EXPECTED) == {(t, s) for t in paper_tables.REPRO_TARGETS for s in SCALES}


def test_unknown_scale_is_rejected_before_any_work():
    calls: List[object] = []
    with mock.patch.object(runner, "_execute_work_item", calls.append), \
            mock.patch.object(datasets, "build_dataset", lambda *args, **kwargs: calls.append(args)), \
            mock.patch.object(datasets, "build_training_set", lambda **kwargs: calls.append(kwargs)):
        with pytest.raises(ValueError, match="unknown scale 'Smoke'; available: smoke, reduced, paper"):
            paper_tables.reproduce("table4", scale="Smoke")
    assert calls == []


if __name__ == "__main__":
    for t in paper_tables.REPRO_TARGETS:
        for s in SCALES:
            print(f'    ("{t}", "{s}"): "{render_digest(t, s)}",')
