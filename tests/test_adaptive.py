"""Tests for the CCR-based adaptive scheduler (framework vs multilevel)."""

import pytest

from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import exp_dag
from repro.model.machine import BspMachine
from repro.portfolio import selector
from repro.portfolio.selector import AdaptiveScheduler
from repro.registry import make_scheduler, scheduler_info


@pytest.fixture
def adaptive():
    return AdaptiveScheduler(ccr_threshold=8.0, margin=0.25)


class TestDispatchLogic:
    def test_low_ccr_uses_base_only(self, adaptive):
        assert adaptive.candidates(1.0, 100) == ("framework",)

    def test_high_ccr_uses_multilevel_only(self, adaptive):
        assert adaptive.candidates(100.0, 100) == ("multilevel",)

    def test_band_runs_both(self, adaptive):
        assert adaptive.candidates(8.0, 100) == ("framework", "multilevel")

    def test_tiny_dag_uses_base_only(self, adaptive):
        assert adaptive.candidates(100.0, 8) == ("framework",)
        assert adaptive.candidates(100.0, 9) == ("multilevel",)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveScheduler(ccr_threshold=0)
        with pytest.raises(ValueError):
            AdaptiveScheduler(margin=-0.1)

    def test_registry_passes_parameters(self):
        built = make_scheduler("adaptive(ccr_threshold=4.0, margin=0.1)")
        assert isinstance(built, AdaptiveScheduler)
        assert (built.ccr_threshold, built.margin) == (4.0, 0.1)

    def test_registry_default_threshold_is_the_comm_heavy_rule(self):
        assert scheduler_info("adaptive").defaults["ccr_threshold"] == selector._COMM_HEAVY_CCR
        assert AdaptiveScheduler().ccr_threshold == selector._COMM_HEAVY_CCR


class TestEndToEnd:
    def test_cheap_communication_instance(self, adaptive, spmv_small):
        machine = BspMachine(P=4, g=1, l=2)
        schedule = adaptive.schedule_checked(spmv_small, machine)
        costs = adaptive.last_race.costs
        assert set(costs) == {"framework"}
        assert schedule.cost() == pytest.approx(costs["framework"])

    def test_communication_dominated_instance(self, adaptive):
        dag = exp_dag(6, k=2, q=0.3, seed=5)
        machine = BspMachine.hierarchical(P=16, delta=4, g=4, l=5)
        schedule = adaptive.schedule_checked(dag, machine)
        costs = adaptive.last_race.costs
        assert "multilevel" in costs
        assert schedule.cost() == pytest.approx(min(costs.values()))

    def test_tiny_dag_falls_back_to_base(self, adaptive, machine4):
        dag = ComputationalDAG(3, [(0, 1), (1, 2)], comm=[50, 50, 50])
        adaptive.schedule_checked(dag, machine4)
        assert set(adaptive.last_race.costs) == {"framework"}
