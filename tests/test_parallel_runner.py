"""Tests for the registry-driven parallel experiment engine."""

import json

import pytest

from repro.experiments.persistence import (
    CheckpointWriter,
    experiment_to_dict,
    read_checkpoint,
)
from repro.experiments.runner import (
    BASELINE_LABELS,
    ParallelRunner,
    WorkItem,
    WorkItemResult,
    execute_work_item,
    run_experiment,
    schedule_many,
)
from repro.graphs.fine import spmv_dag
from repro.model.machine import BspMachine
from repro.pipeline.config import PipelineConfig
from repro.registry import TABLE_LABELS, registry_name_for_label, scheduler_for_label
from repro.scheduler import SchedulingError


@pytest.fixture(scope="module")
def dags():
    return [spmv_dag(5, q=0.3, seed=1), spmv_dag(6, q=0.3, seed=2)]


@pytest.fixture(scope="module")
def machine():
    return BspMachine(P=2, g=2, l=3)


@pytest.fixture(scope="module")
def fast_config():
    return PipelineConfig.fast()


class TestLabelRegistry:
    def test_baseline_labels_come_from_registry(self):
        assert BASELINE_LABELS == tuple(TABLE_LABELS)

    def test_every_label_resolves(self, dags, machine):
        for label in TABLE_LABELS:
            scheduler = scheduler_for_label(label)
            assert scheduler.name == label
            assert scheduler.schedule_checked(dags[0], machine).is_valid()

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown table label"):
            registry_name_for_label("NoSuchBaseline")


class TestWorkItems:
    def test_baseline_item_records_checked_cost(self, dags, machine):
        item = WorkItem(index=0, instance=0, dag=dags[0], machine=machine,
                        scheduler="cilk", label="Cilk")
        result = execute_work_item(item)
        assert set(result.costs) == {"Cilk"}
        assert result.costs["Cilk"] > 0

    def test_invalid_scheduler_name_fails_loudly(self, dags, machine):
        item = WorkItem(index=0, instance=0, dag=dags[0], machine=machine,
                        scheduler="no-such-scheduler")
        with pytest.raises(ValueError, match="unknown scheduler"):
            execute_work_item(item)

    def test_checkpoint_record_roundtrip(self):
        result = WorkItemResult(index=3, instance=1, costs={"Cilk": 12.0},
                                best_initializer="BSPg",
                                initializer_costs={"BSPg": 13.0})
        restored = WorkItemResult.from_record(
            json.loads(json.dumps(result.as_record()))
        )
        assert restored == result


class TestParallelRunner:
    def test_batch_matches_per_instance(self, dags, machine, fast_config):
        engine = run_experiment(dags, machine, pipeline_config=fast_config, jobs=1)
        by_hand = [
            run_experiment([dag], machine, pipeline_config=fast_config, jobs=1).instances[0]
            for dag in dags
        ]
        assert len(engine.instances) == len(by_hand)
        for got, want in zip(engine.instances, by_hand):
            assert got.costs == want.costs
            assert got.best_initializer == want.best_initializer

    def test_parallel_jobs_are_byte_identical(self, dags, machine, fast_config):
        serial = run_experiment(dags, machine, pipeline_config=fast_config, jobs=1)
        parallel = run_experiment(dags, machine, pipeline_config=fast_config, jobs=2)
        assert json.dumps(experiment_to_dict(serial), sort_keys=True) == json.dumps(
            experiment_to_dict(parallel), sort_keys=True
        )

    def test_default_jobs_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert ParallelRunner().jobs == 2
        assert ParallelRunner(1).jobs == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert ParallelRunner().jobs == 1

    def test_checkpoint_and_resume(self, dags, machine, fast_config, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        first = run_experiment(
            dags, machine, pipeline_config=fast_config, jobs=1,
            checkpoint=str(checkpoint),
        )
        records = read_checkpoint(checkpoint)
        assert records, "checkpoint must be written incrementally"
        assert all({"item", "instance", "costs"} <= set(r) for r in records)
        # Resuming re-runs nothing and reproduces the identical experiment.
        resumed = run_experiment(
            dags, machine, pipeline_config=fast_config, jobs=1,
            checkpoint=str(checkpoint), resume=True,
        )
        assert experiment_to_dict(first) == experiment_to_dict(resumed)
        # No new records beyond a full run's worth were appended.
        assert len(read_checkpoint(checkpoint)) == len(records)

    def test_checkpoint_writer_appends(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with CheckpointWriter(path) as writer:
            writer.append({"item": 0, "instance": 0, "costs": {}})
        with CheckpointWriter(path) as writer:
            writer.append({"item": 1, "instance": 0, "costs": {}})
        assert [r["item"] for r in read_checkpoint(path)] == [0, 1]

    def test_resume_ignores_foreign_checkpoint(self, dags, machine, tmp_path):
        """A checkpoint from a different run must not leak stale results."""
        checkpoint = tmp_path / "run.jsonl"
        run_experiment([dags[0]], machine, baselines_only=True, jobs=1,
                       checkpoint=str(checkpoint))
        # Same file, different dataset: every record's dag identity mismatches,
        # so all items re-run and the result reflects the new dataset.
        other = spmv_dag(7, q=0.3, seed=9)
        resumed = run_experiment([other], machine, baselines_only=True, jobs=1,
                                 checkpoint=str(checkpoint), resume=True)
        fresh = run_experiment([other], machine, baselines_only=True, jobs=1)
        assert resumed.instances[0].costs == fresh.instances[0].costs
        assert resumed.instances[0].dag_name == other.name

    def test_resume_ignores_checkpoint_from_other_machine(self, dags, machine, tmp_path):
        """Same dags, different machine: records must not be reused."""
        checkpoint = tmp_path / "run.jsonl"
        run_experiment([dags[0]], machine, baselines_only=True, jobs=1,
                       checkpoint=str(checkpoint))
        other_machine = BspMachine(P=4, g=10, l=50)
        resumed = run_experiment([dags[0]], other_machine, baselines_only=True,
                                 jobs=1, checkpoint=str(checkpoint), resume=True)
        fresh = run_experiment([dags[0]], other_machine, baselines_only=True, jobs=1)
        assert resumed.instances[0].costs == fresh.instances[0].costs

    def test_resume_distinguishes_same_shape_different_weights(self, machine, tmp_path):
        """Two DAGs sharing name/n/edges but not weights must not share records."""
        from repro.graphs.dag import ComputationalDAG

        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        light = ComputationalDAG(4, edges, work=[1] * 4, comm=[1] * 4, name="same")
        heavy = ComputationalDAG(4, edges, work=[9] * 4, comm=[9] * 4, name="same")
        checkpoint = tmp_path / "run.jsonl"
        run_experiment([light], machine, baselines_only=True, jobs=1,
                       checkpoint=str(checkpoint))
        resumed = run_experiment([heavy], machine, baselines_only=True, jobs=1,
                                 checkpoint=str(checkpoint), resume=True)
        fresh = run_experiment([heavy], machine, baselines_only=True, jobs=1)
        assert resumed.instances[0].costs == fresh.instances[0].costs

    def test_resume_survives_truncated_trailing_record(self, dags, machine, tmp_path):
        """A crash mid-append leaves a partial line; resume must still work."""
        checkpoint = tmp_path / "run.jsonl"
        first = run_experiment([dags[0]], machine, baselines_only=True, jobs=1,
                               checkpoint=str(checkpoint))
        with open(checkpoint, "a") as handle:
            handle.write('{"item": 99, "instance": 0, "costs": {"Cil')  # killed mid-write
        resumed = run_experiment([dags[0]], machine, baselines_only=True, jobs=1,
                                 checkpoint=str(checkpoint), resume=True)
        assert resumed.instances[0].costs == first.instances[0].costs

    def test_fresh_run_truncates_old_checkpoint(self, dags, machine, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        run_experiment(dags, machine, baselines_only=True, jobs=1,
                       checkpoint=str(checkpoint))
        first = len(read_checkpoint(checkpoint))
        # Without resume the file is rewritten, not appended to.
        run_experiment(dags, machine, baselines_only=True, jobs=1,
                       checkpoint=str(checkpoint))
        assert len(read_checkpoint(checkpoint)) == first


class TestCrossPath:
    def test_every_path_reports_the_same_cost_per_spec(self, machine):
        """schedule_many, a spec sweep, a no-budget race and api.compare all
        build their work items from the same specs and agree on every cost."""
        from repro import api
        from repro.experiments.sweep import sweep
        from repro.portfolio import race
        from repro.spec import DagSpec, MachineSpec, ProblemSpec

        specs = ["cilk", "hdagg", "source", "bspg"]
        problem = ProblemSpec(
            dag=DagSpec.generator("spmv", n=6, q=0.3, seed=2),
            machine=MachineSpec(P=2, g=2, l=3),
        )
        dag, machine = problem.build_dag(), problem.build_machine()
        many = {name: float(s.cost()) for name, s in schedule_many(dag, machine, specs)}
        swept = {
            r.algorithm: r.cost
            for r in sweep({"one": [dag]}, [problem.machine], baseline="cilk", scheduler_specs=specs)
        }
        raced = race(dag, machine, specs).costs
        compared = {r.scheduler: r.total_cost for r in api.compare(problem, specs)}
        assert many == swept == raced == compared
        assert set(many) == set(specs)


class TestScheduleMany:
    def test_results_in_request_order(self, dags, machine):
        names = ["hdagg", "cilk", "bspg"]
        results = schedule_many(dags[0], machine, names)
        assert [name for name, _ in results] == names
        for _, schedule in results:
            assert schedule.is_valid()

    def test_parallel_matches_serial(self, dags, machine):
        names = ["cilk", "hdagg"]
        serial = schedule_many(dags[0], machine, names, jobs=1)
        parallel = schedule_many(dags[0], machine, names, jobs=2)
        for (_, a), (_, b) in zip(serial, parallel):
            assert float(a.cost()) == float(b.cost())
            assert (a.proc == b.proc).all() and (a.step == b.step).all()

    def test_invalid_schedule_fails_loudly(self, dags, machine, monkeypatch):
        import repro.baselines.cilk as cilk_mod

        def bad_schedule(self, dag, machine):
            from repro.model.schedule import BspSchedule
            import numpy as np

            # Every node in superstep 0 on different processors: cross-processor
            # edges then have no communication phase available -> invalid.
            proc = np.arange(dag.n) % machine.P
            return BspSchedule(dag, machine, proc, np.zeros(dag.n, dtype=np.int64))

        monkeypatch.setattr(cilk_mod.CilkScheduler, "schedule", bad_schedule)
        with pytest.raises(SchedulingError):
            run_experiment([dags[0]], machine, baselines_only=True, jobs=1)
