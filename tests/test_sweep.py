"""Tests for the parameter-sweep utility and its CSV export."""

import csv
import math

import numpy as np
import pytest

from repro.experiments.sweep import MachineSpec, ratio_to_baseline, records_to_csv, sweep
from repro.graphs.fine import spmv_dag
from repro.model.machine import BspMachine
from repro.pipeline.config import PipelineConfig


@pytest.fixture(scope="module")
def tiny_grid_records():
    datasets = {"tiny": [spmv_dag(5, q=0.3, seed=1)]}
    machines = [MachineSpec(P=2, g=1, l=3), MachineSpec(P=2, g=3, l=3, delta=2.0)]
    return sweep(
        datasets,
        machines,
        pipeline_config=PipelineConfig.fast(),
        baselines_only=True,
    )


class TestMachineSpec:
    def test_uniform_and_numa_builds(self):
        assert MachineSpec(P=4, g=2).build().is_uniform
        numa = MachineSpec(P=4, g=2, delta=3.0).build()
        assert not numa.is_uniform
        assert numa.coefficient(0, 2) == 3.0

    def test_describe_round_trip(self):
        meta = MachineSpec(P=8, g=1, l=5, delta=4.0).describe()
        assert meta == {"P": 8, "g": 1, "l": 5, "delta": 4.0, "memory_bound": 0.0}

    def test_describe_memory_bound(self):
        assert MachineSpec(P=2, memory_bound=16).describe()["memory_bound"] == 16.0
        # Per-processor bounds are summarized by the binding (smallest) one.
        assert MachineSpec(P=2, memory_bound=(8, 16)).describe()["memory_bound"] == 8.0


class TestSweep:
    def test_one_record_per_algorithm_and_machine(self, tiny_grid_records):
        records = tiny_grid_records
        # baselines_only records Cilk, HDagg, BL-EST, ETF and Trivial.
        algorithms = {r.algorithm for r in records}
        assert {"Cilk", "HDagg", "Trivial"} <= algorithms
        machines = {(r.P, r.g, r.delta) for r in records}
        assert len(machines) == 2

    def test_baseline_ratio_is_one_for_baseline(self, tiny_grid_records):
        for record in tiny_grid_records:
            if record.algorithm == "Cilk":
                assert record.ratio_to_baseline == pytest.approx(1.0)
            assert record.cost > 0

    def test_full_pipeline_records_include_stages(self):
        datasets = {"tiny": [spmv_dag(5, q=0.3, seed=2)]}
        records = sweep(
            datasets,
            [MachineSpec(P=2, g=2, l=3)],
            pipeline_config=PipelineConfig.fast(),
            include_list_baselines=False,
        )
        algorithms = {r.algorithm for r in records}
        assert {"Init", "HCcs", "ILP"} <= algorithms
        ours = next(r for r in records if r.algorithm == "ILP")
        assert ours.ratio_to_baseline <= 1.2


class TestBaselineResolution:
    def test_lowercase_baseline_matches_canonical_label(self):
        # PR 2 made registry labels case-insensitive; the sweep must follow.
        datasets = {"tiny": [spmv_dag(5, q=0.3, seed=1)]}
        machines = [MachineSpec(P=2, g=1, l=3)]
        lowered = sweep(datasets, machines, baseline="cilk", baselines_only=True)
        canonical = sweep(datasets, machines, baseline="Cilk", baselines_only=True)
        assert [r.ratio_to_baseline for r in lowered] == [
            r.ratio_to_baseline for r in canonical
        ]
        assert not any(math.isnan(r.ratio_to_baseline) for r in lowered)

    def test_missing_baseline_raises_value_error(self):
        datasets = {"tiny": [spmv_dag(4, q=0.3, seed=1)]}
        with pytest.raises(ValueError, match="not measured"):
            sweep(
                datasets,
                [MachineSpec(P=2, g=1, l=3)],
                baseline="no-such-algorithm",
                baselines_only=True,
            )

    def test_zero_cost_baseline_yields_inf_not_nan(self):
        ratio = ratio_to_baseline({"Free": 0.0, "Paid": 7.5}, "Paid", "free")
        assert ratio == float("inf")
        # An equally free algorithm is on par, not NaN.
        assert ratio_to_baseline({"Free": 0.0, "AlsoFree": 0.0}, "alsofree", "Free") == 1.0

    def test_missing_algorithm_raises(self):
        with pytest.raises(KeyError):
            ratio_to_baseline({"Cilk": 3.0}, "nope", "Cilk")

    def test_instance_result_ratio_is_case_insensitive(self):
        from repro.experiments.runner import run_experiment

        (result,) = run_experiment(
            [spmv_dag(5, q=0.3, seed=1)], BspMachine(P=2, g=1, l=3), baselines_only=True
        ).instances
        assert result.ratio("hdagg", "cilk") == pytest.approx(
            result.ratio("HDagg", "Cilk")
        )
        with pytest.raises(KeyError):
            result.ratio("unknown-label")


class TestMemoryBoundGrid:
    def test_memory_dimension_with_scheduler_specs(self):
        dag = spmv_dag(6, q=0.3, seed=2)
        bound = float(np.ceil(dag.total_memory() / 2) * 1.4)
        records = sweep(
            {"tiny": [dag]},
            [
                MachineSpec(P=2, g=1, l=3),
                MachineSpec(P=2, g=1, l=3, memory_bound=bound),
            ],
            baseline="greedy-mem",
            scheduler_specs=["greedy-mem", "hc(init=greedy-mem, max_moves=50)"],
        )
        bounds = {r.memory_bound for r in records}
        assert bounds == {0.0, bound}
        assert {r.algorithm for r in records} == {
            "greedy-mem",
            "hc(init=greedy-mem, max_moves=50)",
        }
        for record in records:
            assert record.cost > 0
            assert not math.isnan(record.ratio_to_baseline)

    def test_memory_bound_column_in_csv(self, tmp_path):
        dag = spmv_dag(5, q=0.3, seed=3)
        records = sweep(
            {"tiny": [dag]},
            [MachineSpec(P=2, g=1, l=3, memory_bound=float(dag.total_memory()))],
            baseline="greedy-mem",
            scheduler_specs=["greedy-mem"],
        )
        path = tmp_path / "mem.csv"
        records_to_csv(records, path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert all(float(row["memory_bound"]) == dag.total_memory() for row in rows)


class TestCsvExport:
    def test_round_trip(self, tiny_grid_records, tmp_path):
        path = tmp_path / "sweep.csv"
        records_to_csv(tiny_grid_records, path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(tiny_grid_records)
        assert set(rows[0]) == set(tiny_grid_records[0].as_dict())

    def test_empty_records_still_write_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        records_to_csv([], path)
        header = path.read_text().strip().splitlines()[0]
        assert "algorithm" in header
