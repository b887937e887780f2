"""Tests for the experiment harness: reporting, datasets, runner, tables."""

import re
from pathlib import Path

import pytest

from repro.experiments import tables as paper_tables
from repro.experiments.datasets import build_dataset, build_training_set, dataset_range, fit_fine_grained
from repro.experiments.report import Table, format_percent, geometric_mean, improvement
from repro.experiments.runner import run_experiment
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import spmv_dag
from repro.model.machine import BspMachine
from repro.pipeline.config import MultilevelConfig, PipelineConfig


class TestReport:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_improvement(self):
        assert improvement([0.5, 0.5]) == pytest.approx(0.5)
        assert improvement([1.0]) == pytest.approx(0.0)

    def test_format_percent(self):
        assert format_percent(0.24) == "24%"
        assert format_percent(0.123, digits=1) == "12.3%"

    def test_table_rendering(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(22, "yy")
        table.add_note("a note")
        text = table.to_text()
        assert "Demo" in text and "22" in text and "note" in text
        md = table.to_markdown()
        assert md.count("|") > 4

    def test_table_rejects_wrong_row_length(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)


class TestDatasets:
    def test_dataset_range_lookup(self):
        assert dataset_range("tiny", "paper") == (40, 80)
        assert dataset_range("huge", "reduced")[0] > dataset_range("large", "reduced")[0]
        with pytest.raises(ValueError):
            dataset_range("tiny", "gigantic")
        with pytest.raises(ValueError):
            dataset_range("colossal")

    def test_fit_fine_grained_hits_target(self):
        for kind in ("spmv", "exp", "cg", "knn"):
            dag = fit_fine_grained(kind, 120, seed=1)
            assert 120 * 0.4 <= dag.n <= 120 * 2.5

    def test_fit_rejects_tiny_target(self):
        with pytest.raises(ValueError):
            fit_fine_grained("spmv", 2)

    def test_build_smoke_dataset(self):
        dags = build_dataset("tiny", scale="smoke", max_instances=5)
        assert 0 < len(dags) <= 5
        lo, hi = dataset_range("tiny", "smoke")
        for dag in dags:
            assert dag.n <= hi * 3  # fitting tolerance keeps sizes in the ballpark
            assert isinstance(dag, ComputationalDAG)

    def test_build_training_set(self):
        dags = build_training_set(scale="smoke")
        assert len(dags) == 10
        assert any("spmv" in d.name for d in dags)
        sizes = [d.n for d in dags]
        assert max(sizes) > min(sizes)


class TestRunner:
    @pytest.fixture(scope="class")
    def small_instances(self):
        return [spmv_dag(5, q=0.3, seed=1), spmv_dag(6, q=0.3, seed=2)]

    @pytest.fixture(scope="class")
    def fast_config(self):
        return PipelineConfig.fast()

    def test_run_experiment_records_all_labels(self, small_instances, fast_config):
        machine = BspMachine(P=2, g=2, l=3)
        (result,) = run_experiment(
            small_instances[:1], machine, pipeline_config=fast_config
        ).instances
        for label in ("Cilk", "HDagg", "BL-EST", "ETF", "Trivial", "Init", "HCcs", "ILP"):
            assert label in result.costs
            assert result.costs[label] > 0
        assert result.ratio("ILP", "Cilk") <= 1.5

    def test_baselines_only_mode(self, small_instances):
        machine = BspMachine(P=2, g=2, l=3)
        (result,) = run_experiment(small_instances[:1], machine, baselines_only=True).instances
        assert "ILP" not in result.costs and "Cilk" in result.costs

    def test_experiment_aggregation(self, small_instances, fast_config):
        machine = BspMachine(P=2, g=2, l=3)
        experiment = run_experiment(small_instances, machine, pipeline_config=fast_config)
        assert len(experiment.instances) == 2
        ratio = experiment.mean_ratio("ILP", "Cilk")
        assert 0 < ratio <= 1.2
        assert experiment.improvement("ILP", "Cilk") == pytest.approx(1 - ratio)
        assert experiment.mean_ratio("Cilk", "Cilk") == pytest.approx(1.0)

    def test_multilevel_labels_present_when_requested(self, small_instances, fast_config):
        machine = BspMachine.hierarchical(P=4, delta=2, g=1, l=3)
        ml = MultilevelConfig(
            coarsening_ratios=(0.3,), min_coarse_nodes=4, hc_moves_per_refinement=10,
            base_pipeline=fast_config,
        )
        (result,) = run_experiment(
            small_instances[:1], machine, pipeline_config=fast_config, multilevel_config=ml
        ).instances
        assert "ML" in result.costs and "ML@0.3" in result.costs


class TestPaperTables:
    """The grid runner and the views of the paper artifacts on minimal inputs."""

    @pytest.fixture(scope="class")
    def tiny_datasets(self):
        return {"tiny": [spmv_dag(5, q=0.3, seed=3)]}

    @pytest.fixture(scope="class")
    def fast_config(self):
        return PipelineConfig.fast()

    @staticmethod
    def view(target, grid):
        _, view = paper_tables._VIEWS[target]
        return view(grid)

    def test_table1_and_figure5_share_grid(self, tiny_datasets, fast_config):
        grid = paper_tables.run_grid(tiny_datasets, {(2, 1): BspMachine(P=2, g=1, l=3)}, fast_config)
        t_left, t_right = self.view("table1", grid)
        assert len(t_left.rows) == 1 and len(t_right.rows) == 1
        (fig5,) = self.view("fig5", grid)
        assert fig5.rows[0][1] == "1.000"  # Cilk normalized to itself

    def test_table9_latency(self, tiny_datasets, fast_config):
        machines = {(2, l): BspMachine(P=2, g=1, l=l) for l in (2, 5)}
        (table,) = self.view("table9", paper_tables.run_grid(tiny_datasets, machines, fast_config))
        assert len(table.rows) == 2
        assert table.title.endswith("(g=1, P=2)")

    def test_table11_and_figure7(self, tiny_datasets):
        config = PipelineConfig.heuristics_only()
        grid = paper_tables.run_grid(tiny_datasets, {(2, 1): BspMachine(P=2, g=1, l=3)}, config)
        (table,) = self.view("table11", grid)
        (fig,) = self.view("fig7", grid)
        assert len(table.rows) == 1 and len(fig.rows) == 1

    def test_readme_table_lists_every_repro_target(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Reproducing the paper's tables and figures", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| .+ \| `python -m repro repro (\w+)` \| `test_reproduce\[(\w+)\]` \|$", section, re.M)
        assert [cli for cli, _ in rows] == [case for _, case in rows]
        assert sorted(cli for cli, _ in rows) == sorted(paper_tables.REPRO_TARGETS)
