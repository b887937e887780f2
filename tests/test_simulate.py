"""Tests for the BSP timeline simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.hdagg import HDaggScheduler
from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.model.cost import evaluate
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule, CommSchedule
from repro.model.simulate import simulate_timeline


class TestTimelineStructure:
    def test_makespan_equals_total_cost(self, all_test_dags, machine4):
        for dag in all_test_dags:
            sched = HDaggScheduler().schedule(dag, machine4)
            timeline = simulate_timeline(sched)
            assert timeline.makespan == pytest.approx(sched.cost())

    def test_makespan_equals_cost_with_numa(self, exp_small, numa_machine):
        sched = HDaggScheduler().schedule(exp_small, numa_machine)
        assert simulate_timeline(sched).makespan == pytest.approx(sched.cost())

    def test_residue_only_superstep_has_no_latency_phase(self):
        """A superstep whose only traffic is below the occupancy tolerance does
        not occur for the timeline either, as for evaluate."""
        dag = ComputationalDAG(2, [(0, 1)], work=[1, 1], comm=[1, 0])
        machine = BspMachine(P=2, g=1, l=5, numa=[[0, 1e-13], [1e-13, 0]])
        comm = CommSchedule({(0, 0, 1, 1)})
        sched = BspSchedule(dag, machine, np.array([0, 1]), np.array([0, 2]), comm)
        breakdown = evaluate(sched)
        timeline = simulate_timeline(sched)
        latency = [p for p in timeline.phases if p.kind == "latency"]
        assert len(latency) == breakdown.num_supersteps == 2
        assert timeline.makespan == pytest.approx(breakdown.total)

    def test_every_node_executed_exactly_once(self, layered_dag, machine4):
        sched = HDaggScheduler().schedule(layered_dag, machine4)
        timeline = simulate_timeline(sched)
        executed = sorted(e.node for e in timeline.executions)
        assert executed == list(range(layered_dag.n))

    def test_execution_duration_equals_work(self, diamond_dag, machine2):
        sched = BspSchedule.trivial(diamond_dag, machine2)
        timeline = simulate_timeline(sched)
        for execution in timeline.executions:
            assert execution.end - execution.start == pytest.approx(
                float(diamond_dag.work[execution.node])
            )

    def test_no_overlap_on_a_processor(self, layered_dag, machine4):
        sched = HDaggScheduler().schedule(layered_dag, machine4)
        timeline = simulate_timeline(sched)
        for p in range(machine4.P):
            executions = timeline.executions_on(p)
            for a, b in zip(executions, executions[1:]):
                assert a.end <= b.start + 1e-9

    def test_phases_are_contiguous_and_ordered(self, fork_join_dag, machine4):
        sched = HDaggScheduler().schedule(fork_join_dag, machine4)
        timeline = simulate_timeline(sched)
        phases = timeline.phases
        for a, b in zip(phases, phases[1:]):
            assert b.start == pytest.approx(a.end)
        assert phases[-1].end == pytest.approx(timeline.makespan)

    def test_phase_kinds(self, machine2):
        dag = ComputationalDAG(2, [(0, 1)], work=[2, 2], comm=[3, 1])
        sched = BspSchedule(dag, machine2, np.array([0, 1]), np.array([0, 1]))
        timeline = simulate_timeline(sched)
        kinds = [(p.superstep, p.kind) for p in timeline.phases]
        assert (0, "compute") in kinds
        assert (0, "communicate") in kinds
        assert (1, "compute") in kinds
        # The latency term is charged once per occurring superstep.
        assert sum(1 for _, k in kinds if k == "latency") == 2

    def test_empty_schedule(self, machine2):
        dag = ComputationalDAG(0, [])
        timeline = simulate_timeline(BspSchedule.trivial(dag, machine2))
        assert timeline.makespan == 0.0
        assert timeline.phases == [] and timeline.executions == []

    def test_nodes_respect_topological_order_within_processor(self, chain_dag, machine2):
        sched = BspSchedule.trivial(chain_dag, machine2)
        timeline = simulate_timeline(sched)
        ordered = timeline.executions_on(0)
        assert [e.node for e in ordered] == list(chain_dag.topological_order())


# ----------------------------------------------------------------------
# Property test of the docstring invariant: the makespan of the expanded
# timeline equals the schedule's total cost, for any valid schedule on any
# machine (uniform or NUMA), including empty and single-superstep ones.
# ----------------------------------------------------------------------
@st.composite
def _random_dags(draw, max_nodes: int = 14):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        num_parents = draw(st.integers(min_value=0, max_value=min(3, v)))
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=v - 1),
                min_size=num_parents,
                max_size=num_parents,
                unique=True,
            )
        )
        edges.extend((u, v) for u in parents)
    work = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n))
    comm = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    return ComputationalDAG(n, edges, work, comm, name="hypothesis")


@st.composite
def _machines(draw):
    P = draw(st.sampled_from([1, 2, 4, 8]))
    g = draw(st.sampled_from([0.0, 1.0, 3.0]))
    latency = draw(st.sampled_from([0.0, 1.0, 5.0]))
    if draw(st.booleans()) and P >= 2:
        delta = draw(st.sampled_from([2.0, 3.0]))
        return BspMachine.hierarchical(P=P, delta=delta, g=g, l=latency)
    return BspMachine(P=P, g=g, l=latency)


class TestMakespanInvariantProperty:
    @settings(max_examples=60, deadline=None)
    @given(dag=_random_dags(), machine=_machines())
    def test_makespan_equals_total_cost_multi_superstep(self, dag, machine):
        schedule = LevelRoundRobinScheduler().schedule(dag, machine)
        assert schedule.is_valid()
        timeline = simulate_timeline(schedule)
        assert timeline.makespan == pytest.approx(evaluate(schedule).total)

    @settings(max_examples=60, deadline=None)
    @given(dag=_random_dags(), machine=_machines())
    def test_makespan_equals_total_cost_single_superstep(self, dag, machine):
        schedule = BspSchedule.trivial(dag, machine)
        timeline = simulate_timeline(schedule)
        assert timeline.makespan == pytest.approx(evaluate(schedule).total)
        assert schedule.num_supersteps <= 1

    @settings(max_examples=25, deadline=None)
    @given(machine=_machines())
    def test_empty_schedule_has_zero_makespan(self, machine):
        dag = ComputationalDAG(0, [])
        schedule = BspSchedule.trivial(dag, machine)
        assert simulate_timeline(schedule).makespan == 0.0
        assert evaluate(schedule).total == 0.0
