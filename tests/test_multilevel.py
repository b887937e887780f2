"""Tests for the multilevel scheduler: coarsening, projection, refinement."""

import numpy as np
import pytest

from repro.baselines.hdagg import HDaggScheduler
from repro.graphs.fine import exp_dag
from repro.model.machine import BspMachine
from repro.multilevel.coarsen import (
    CoarseningSequence,
    coarse_dag_from_partition,
    coarsen_dag,
)
from repro.multilevel.refine import project_schedule, uncoarsen_and_refine
from repro.multilevel.scheduler import MultilevelScheduler, multilevel_schedule
from repro.pipeline.config import MultilevelConfig, PipelineConfig


class TestCoarsening:
    def test_reaches_target_size(self, spmv_small):
        target = max(8, spmv_small.n // 3)
        seq = coarsen_dag(spmv_small, target)
        coarse, mapping = seq.coarse_dag_after(seq.num_contractions)
        assert coarse.n <= max(target, spmv_small.n)
        assert coarse.n >= 1
        assert len(mapping) == spmv_small.n

    def test_each_contraction_reduces_by_one(self, layered_dag):
        seq = coarsen_dag(layered_dag, layered_dag.n - 5)
        assert seq.num_contractions == 5
        coarse, _ = seq.coarse_dag_after(5)
        assert coarse.n == layered_dag.n - 5

    def test_coarse_dag_preserves_total_weights(self, exp_small):
        seq = coarsen_dag(exp_small, max(4, exp_small.n // 4))
        coarse, _ = seq.coarse_dag_after(seq.num_contractions)
        assert coarse.total_work() == exp_small.total_work()
        assert coarse.total_comm() == exp_small.total_comm()

    def test_intermediate_levels_are_dags(self, layered_dag):
        seq = coarsen_dag(layered_dag, max(4, layered_dag.n // 3))
        for k in range(0, seq.num_contractions + 1, 3):
            coarse, _ = seq.coarse_dag_after(k)  # constructor checks acyclicity
            assert coarse.n == layered_dag.n - k

    def test_partition_prefix_is_consistent(self, layered_dag):
        seq = coarsen_dag(layered_dag, max(4, layered_dag.n // 2))
        early = seq.partition_after(2)
        late = seq.partition_after(seq.num_contractions)
        # The late partition must be a coarsening of the early one: nodes
        # sharing an early cluster also share a late cluster.
        for u in range(layered_dag.n):
            for v in range(u + 1, layered_dag.n):
                if early[u] == early[v]:
                    assert late[u] == late[v]

    def test_partition_after_out_of_range(self, diamond_dag):
        seq = coarsen_dag(diamond_dag, 2)
        with pytest.raises(ValueError):
            seq.partition_after(seq.num_contractions + 1)

    def test_invalid_target_rejected(self, diamond_dag):
        with pytest.raises(ValueError):
            coarsen_dag(diamond_dag, 0)

    def test_chain_coarsens_fully(self, chain_dag):
        seq = coarsen_dag(chain_dag, 1)
        coarse, _ = seq.coarse_dag_after(seq.num_contractions)
        assert coarse.n == 1
        assert coarse.total_work() == chain_dag.total_work()

    def test_coarse_dag_from_partition_identity(self, diamond_dag):
        identity = np.arange(diamond_dag.n)
        coarse, mapping = coarse_dag_from_partition(diamond_dag, identity)
        assert coarse.n == diamond_dag.n
        assert coarse.num_edges == diamond_dag.num_edges
        assert np.array_equal(mapping, identity)


class TestProjectionAndRefinement:
    def test_projection_is_valid(self, exp_small, machine4):
        seq = coarsen_dag(exp_small, max(6, exp_small.n // 3))
        total = seq.num_contractions
        coarse, _ = seq.coarse_dag_after(total)
        coarse_schedule = HDaggScheduler().schedule(coarse, machine4)
        finer_steps = max(0, total - 7)
        projected = project_schedule(seq, machine4, coarse_schedule, total, finer_steps)
        assert projected.is_valid()
        assert projected.dag.n == exp_small.n - finer_steps

    def test_projection_rejects_wrong_order(self, exp_small, machine4):
        seq = coarsen_dag(exp_small, max(6, exp_small.n // 3))
        coarse, _ = seq.coarse_dag_after(seq.num_contractions)
        coarse_schedule = HDaggScheduler().schedule(coarse, machine4)
        with pytest.raises(ValueError):
            project_schedule(seq, machine4, coarse_schedule, 0, seq.num_contractions)

    def test_uncoarsen_and_refine_returns_original_dag_schedule(self, exp_small, machine4):
        seq = coarsen_dag(exp_small, max(6, exp_small.n // 3))
        coarse, _ = seq.coarse_dag_after(seq.num_contractions)
        coarse_schedule = HDaggScheduler().schedule(coarse, machine4)
        refined = uncoarsen_and_refine(
            seq,
            machine4,
            coarse_schedule,
            refine_interval=5,
            hc_moves_per_refinement=20,
        )
        assert refined.dag is exp_small
        assert refined.is_valid()

    def test_refinement_with_no_contractions(self, diamond_dag, machine2):
        seq = CoarseningSequence(dag=diamond_dag)
        schedule = HDaggScheduler().schedule(diamond_dag, machine2)
        refined = uncoarsen_and_refine(seq, machine2, schedule)
        assert refined.is_valid()
        assert refined.dag is diamond_dag


class TestMultilevelScheduler:
    @pytest.fixture
    def ml_config(self):
        return MultilevelConfig(
            coarsening_ratios=(0.3,),
            min_coarse_nodes=6,
            hc_moves_per_refinement=20,
            base_pipeline=PipelineConfig.fast(),
        )

    def test_produces_valid_schedule(self, exp_small, numa_machine, ml_config):
        sched, per_ratio = multilevel_schedule(exp_small, numa_machine, ml_config)
        assert sched.is_valid()
        assert set(per_ratio) == {0.3}
        # The returned schedule is the best of the per-ratio runs and the
        # trivial (fully coarsened) limit, so it can only be cheaper.
        assert sched.cost() <= per_ratio[0.3] + 1e-9

    def test_beats_trivial_in_communication_heavy_setting(self, numa_machine, ml_config):
        """The defining property of the multilevel scheduler (paper 7.3): in
        communication-dominated settings it beats the trivial sequential
        schedule, where single-node methods often do not."""
        from repro.baselines.trivial import TrivialScheduler

        dag = exp_dag(7, k=3, q=0.35, seed=11)
        heavy = BspMachine.hierarchical(P=8, delta=4, g=2, l=5)
        ml_cost = MultilevelScheduler(ml_config).schedule(dag, heavy).cost()
        trivial_cost = TrivialScheduler().schedule(dag, heavy).cost()
        assert ml_cost <= trivial_cost

    def test_scheduler_interface(self, exp_small, machine4, ml_config):
        scheduler = MultilevelScheduler(ml_config)
        assert scheduler.name == "ML"
        sched = scheduler.schedule_checked(exp_small, machine4)
        assert sched.dag is exp_small

    def test_best_of_two_ratios_selected(self, exp_small, numa_machine):
        config = MultilevelConfig(
            coarsening_ratios=(0.3, 0.15),
            min_coarse_nodes=6,
            hc_moves_per_refinement=10,
            base_pipeline=PipelineConfig.fast(),
        )
        sched, per_ratio = multilevel_schedule(exp_small, numa_machine, config)
        assert len(per_ratio) == 2
        assert sched.cost() <= min(per_ratio.values()) + 1e-9
