"""The vectorized post-schedule path against its straight-line references.

A schedule without an explicit Gamma uses the lazy communication schedule.
Its validity verdict, its cost matrices, the superstep walks of
``describe_schedule`` / ``simulate_timeline`` / ``schedule_to_dot`` and
``legalize_superstep_assignment`` all have array or single-sweep forms; each
is checked here against the form it replaced:

* the explicit-Gamma path (``with_lazy_comm()``) is the reference for
  validation messages and for every :class:`CostBreakdown` field;
* ``required_transfers()`` is the reference for the lazy Gamma arrays;
* in-test copies of the per-superstep ``nodes_in_superstep`` walks and of
  the per-node numpy legalization are the references for the rest.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.graphs.dag import ComputationalDAG
from repro.graphs.dot import _PALETTE, _node_label, schedule_to_dot
from repro.graphs.fine import exp_dag, spmv_dag
from repro.model import cost as cost_module
from repro.model.cost import evaluate
from repro.model.inspect import describe_schedule
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule, legalize_superstep_assignment
from repro.model.simulate import NodeExecution, PhaseInterval, simulate_timeline
from repro.multilevel import refine
from repro.multilevel.coarsen import coarsen_dag
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def dags(draw, max_nodes: int = 16):
    """Random DAG; zero work and zero communication weights included."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        k = draw(st.integers(min_value=0, max_value=min(3, v)))
        parents = draw(st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True))
        edges.extend((u, v) for u in parents)
    work = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    comm = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return ComputationalDAG(n, edges, work, comm, name="hypothesis")


@st.composite
def machines(draw):
    P = draw(st.sampled_from([1, 2, 3, 4, 8]))
    g = draw(st.sampled_from([0.0, 1.0, 3.0]))
    latency = draw(st.sampled_from([0.0, 5.0]))
    if P in (2, 4, 8) and draw(st.booleans()):
        machine = BspMachine.hierarchical(P=P, delta=draw(st.sampled_from([2.0, 3.0])), g=g, l=latency)
    else:
        machine = BspMachine(P=P, g=g, l=latency)
    if draw(st.booleans()):
        machine = machine.with_memory_bound(draw(st.sampled_from([1.0, 6.0, 50.0])))
    return machine


@st.composite
def schedules(draw):
    """A random (mostly invalid) schedule, or its legalized (valid) form.

    Random steps put many cross-processor edges into superstep 0 and many
    same-step cross edges, the cases the lazy verdict must flag.
    """
    dag = draw(dags())
    machine = draw(machines())
    proc = draw(st.lists(st.integers(0, machine.P - 1), min_size=dag.n, max_size=dag.n))
    step = draw(st.lists(st.integers(0, 4), min_size=dag.n, max_size=dag.n))
    proc = np.array(proc, dtype=np.int64)
    step = np.array(step, dtype=np.int64)
    if draw(st.booleans()):
        step = legalize_superstep_assignment(dag, proc, step)
    return BspSchedule(dag, machine, proc, step)


# ----------------------------------------------------------------------
# Lazy Gamma: verdict, cost and transfer set
# ----------------------------------------------------------------------


def _breakdown_bytes(schedule: BspSchedule) -> List[bytes]:
    b = evaluate(schedule)
    scalars = np.array([b.total, b.work_cost, b.comm_cost, b.latency_cost], dtype=np.float64)
    arrays = (b.work_per_step, b.comm_per_step, b.work_matrix, b.send_matrix, b.recv_matrix)
    return [scalars.tobytes(), str(b.num_supersteps).encode()] + [
        repr(a.shape).encode() + np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays
    ]


class TestLazyGammaAgainstExplicit:
    @settings(max_examples=300, deadline=None)
    @given(schedule=schedules())
    def test_validation_messages_match_explicit_path(self, schedule):
        assert schedule.validation_errors() == schedule.with_lazy_comm().validation_errors()

    @settings(max_examples=300, deadline=None)
    @given(schedule=schedules())
    def test_every_cost_field_is_bitwise_equal(self, schedule):
        assert _breakdown_bytes(schedule) == _breakdown_bytes(schedule.with_lazy_comm())

    @settings(max_examples=300, deadline=None)
    @given(schedule=schedules())
    def test_transfer_arrays_are_the_sorted_lazy_entries(self, schedule):
        reference = sorted(
            (u, int(schedule.proc[u]), q, first_needed - 1)
            for (u, q), first_needed in schedule.required_transfers().items()
        )
        arrays = schedule.lazy_transfers()
        assert all(a.dtype == np.int64 for a in arrays)
        assert list(zip(*(a.tolist() for a in arrays))) == reference
        assert sorted(schedule.lazy_comm_schedule().entries) == reference

    def test_cross_edge_into_step_zero(self):
        dag = ComputationalDAG(2, [(0, 1)], work=[1, 1], comm=[2, 2])
        schedule = BspSchedule(dag, BspMachine(P=2, g=1, l=5), [0, 1], [0, 0])
        errors = schedule.validation_errors()
        assert errors and errors == schedule.with_lazy_comm().validation_errors()
        assert _breakdown_bytes(schedule) == _breakdown_bytes(schedule.with_lazy_comm())


# ----------------------------------------------------------------------
# Superstep walks against per-superstep nodes_in_superstep references
# ----------------------------------------------------------------------


def reference_describe(schedule: BspSchedule, name: str = "") -> str:
    breakdown = evaluate(schedule)
    machine = schedule.machine
    transfers: Dict[int, int] = {}
    for (_, p1, p2, s) in schedule.effective_comm_schedule():
        if p1 != p2:
            transfers[s] = transfers.get(s, 0) + 1
    lines = [f"{name or f'schedule of {schedule.dag.name}'}: {schedule.dag.n} nodes on {machine.describe()}"]
    lines.append(
        f"  total cost {breakdown.total:.1f} = work {breakdown.work_cost:.1f}"
        f" + {machine.g:g} x comm {breakdown.comm_cost / machine.g if machine.g else 0.0:.1f}"
        f" + latency {breakdown.latency_cost:.1f}"
        f"  ({breakdown.num_supersteps} supersteps)"
    )
    for s in range(breakdown.work_matrix.shape[0]):
        nodes: Dict[int, int] = {}
        work: Dict[int, float] = {}
        for v in schedule.nodes_in_superstep(s):
            p = int(schedule.proc[v])
            nodes[p] = nodes.get(p, 0) + 1
            work[p] = work.get(p, 0.0) + float(schedule.dag.work[v])
        comm_cost = float(breakdown.comm_per_step[s])
        if not nodes and comm_cost == 0:
            continue
        bits = ", ".join(f"p{p}: {nodes[p]} nodes / {work[p]:.0f} work" for p in sorted(nodes))
        lines.append(
            f"  superstep {s}: work cost {float(breakdown.work_per_step[s]):.0f}, "
            f"h-relation {comm_cost:.0f}, {transfers.get(s, 0)} transfers"
            + (f"  [{bits}]" if bits else "")
        )
    return "\n".join(lines)


def reference_timeline(schedule: BspSchedule):
    breakdown = evaluate(schedule)
    dag, machine = schedule.dag, schedule.machine
    topo_position = {v: i for i, v in enumerate(dag.topological_order())}
    phases, executions, clock = [], [], 0.0
    for s in range(breakdown.work_matrix.shape[0]):
        if not (
            breakdown.work_matrix[s].sum() > 0
            or breakdown.send_matrix[s].sum() > 0
            or breakdown.recv_matrix[s].sum() > 0
        ):
            continue
        work_duration = float(breakdown.work_per_step[s])
        if work_duration > 0:
            phases.append(PhaseInterval(s, "compute", clock, clock + work_duration))
        cursor = {p: clock for p in range(machine.P)}
        for v in sorted(schedule.nodes_in_superstep(s), key=lambda v: topo_position[v]):
            p = int(schedule.proc[v])
            start = cursor[p]
            cursor[p] = start + float(dag.work[v])
            executions.append(NodeExecution(v, p, s, start, cursor[p]))
        clock += work_duration
        comm_duration = float(machine.g) * float(breakdown.comm_per_step[s])
        if comm_duration > 0:
            phases.append(PhaseInterval(s, "communicate", clock, clock + comm_duration))
            clock += comm_duration
        if machine.l > 0:
            phases.append(PhaseInterval(s, "latency", clock, clock + float(machine.l)))
            clock += float(machine.l)
    return phases, executions, clock


def reference_dot(schedule: BspSchedule) -> str:
    dag = schedule.dag
    lines = [
        f'digraph "{dag.name}-schedule" {{',
        "  rankdir=TB;",
        '  node [shape=box, style=filled, fontsize=10];',
    ]
    for s in range(schedule.num_supersteps):
        nodes = schedule.nodes_in_superstep(s)
        if not nodes:
            continue
        lines.append(f"  subgraph cluster_step_{s} {{")
        lines.append(f'    label="superstep {s}"; color=gray; fontsize=10;')
        for v in nodes:
            p = int(schedule.proc[v])
            label = _node_label(dag, v, False) + f"\\np{p}"
            lines.append(f'    {v} [label="{label}", fillcolor="{_PALETTE[p % len(_PALETTE)]}"];')
        lines.append("  }")
    for (u, v) in dag.edges:
        style = "dashed" if schedule.proc[u] != schedule.proc[v] else "solid"
        lines.append(f"  {u} -> {v} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def valid_schedules(draw):
    """Legalized schedules, half of them with the lazy Gamma made explicit."""
    schedule = draw(schedules())
    schedule = BspSchedule(
        schedule.dag,
        schedule.machine,
        schedule.proc,
        legalize_superstep_assignment(schedule.dag, schedule.proc, schedule.step),
    )
    return schedule.with_lazy_comm() if draw(st.booleans()) else schedule


class TestSuperstepWalks:
    @settings(max_examples=150, deadline=None)
    @given(schedule=valid_schedules())
    def test_describe_schedule_matches_reference(self, schedule):
        assert describe_schedule(schedule, name="x") == reference_describe(schedule, name="x")

    @settings(max_examples=150, deadline=None)
    @given(schedule=valid_schedules())
    def test_simulate_timeline_matches_reference(self, schedule):
        timeline = simulate_timeline(schedule)
        assert (timeline.phases, timeline.executions, timeline.makespan) == reference_timeline(schedule)

    @settings(max_examples=150, deadline=None)
    @given(schedule=schedules())
    def test_schedule_to_dot_matches_reference(self, schedule):
        assert schedule_to_dot(schedule) == reference_dot(schedule)

    def test_walks_never_ask_for_one_superstep(self, monkeypatch):
        dag = exp_dag(5, k=2, q=0.3, seed=2)
        machine = BspMachine.hierarchical(P=4, delta=2.0, g=2, l=5)
        proc = np.arange(dag.n, dtype=np.int64) % 4
        step = legalize_superstep_assignment(dag, proc, np.zeros(dag.n, dtype=np.int64))
        schedule = BspSchedule(dag, machine, proc, step)
        want = (reference_describe(schedule), reference_timeline(schedule), reference_dot(schedule))

        def forbidden(self, s):
            raise AssertionError("per-superstep scan")

        monkeypatch.setattr(BspSchedule, "nodes_in_superstep", forbidden)
        timeline = simulate_timeline(schedule)
        got = (describe_schedule(schedule), (timeline.phases, timeline.executions, timeline.makespan),
               schedule_to_dot(schedule))
        assert got == want


# ----------------------------------------------------------------------
# One evaluate per registry solve
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["cilk", "source"])
def test_registry_solve_evaluates_once(scheduler, monkeypatch):
    calls = []
    real = cost_module.evaluate

    def counting(schedule):
        calls.append(schedule)
        return real(schedule)

    monkeypatch.setattr(cost_module, "evaluate", counting)
    request = SolveRequest(
        spec=ProblemSpec(
            dag=DagSpec.generator("spmv", n=6, q=0.3, seed=1), machine=MachineSpec(P=4, delta=2)
        ),
        scheduler=scheduler,
    )
    result = api.solve(request)
    assert result.valid
    assert len(calls) == 1


# ----------------------------------------------------------------------
# legalize_superstep_assignment: one sweep == the per-node numpy version
# ----------------------------------------------------------------------


def reference_legalize(dag: ComputationalDAG, proc, step) -> np.ndarray:
    out = np.asarray(step, dtype=np.int64).copy()
    proc = np.asarray(proc, dtype=np.int64)
    for v in dag.topological_order():
        parents = dag.predecessors_array(v)
        if parents.size == 0:
            continue
        required = int(np.max(out[parents] + (proc[parents] != proc[v])))
        if out[v] < required:
            out[v] = required
    return out


class TestLegalize:
    @settings(max_examples=300, deadline=None)
    @given(schedule=schedules())
    def test_matches_reference(self, schedule):
        got = legalize_superstep_assignment(schedule.dag, schedule.proc, schedule.step)
        want = reference_legalize(schedule.dag, schedule.proc, schedule.step)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    def test_generated_dag_with_random_processors(self):
        dag = spmv_dag(20, q=0.25, seed=4)
        rng = np.random.default_rng(0)
        proc = rng.integers(0, 8, dag.n)
        step = rng.integers(0, 3, dag.n)
        assert np.array_equal(
            legalize_superstep_assignment(dag, proc, step), reference_legalize(dag, proc, step)
        )


# ----------------------------------------------------------------------
# Multilevel projection: one DAG build per refinement level
# ----------------------------------------------------------------------


def reference_project(sequence, machine, coarse_schedule, coarse_steps, finer_steps):
    fine_dag, fine_mapping = sequence.coarse_dag_after(finer_steps)
    _, coarse_mapping = sequence.coarse_dag_after(coarse_steps)
    representative = {}
    for original in range(sequence.dag.n):
        representative.setdefault(int(fine_mapping[original]), original)
    proc = np.zeros(fine_dag.n, dtype=np.int64)
    step = np.zeros(fine_dag.n, dtype=np.int64)
    for fine_node, original in representative.items():
        coarse_node = int(coarse_mapping[original])
        proc[fine_node] = coarse_schedule.proc[coarse_node]
        step[fine_node] = coarse_schedule.step[coarse_node]
    step = reference_legalize(fine_dag, proc, step)
    return BspSchedule(fine_dag, machine, proc, step)


class TestProjection:
    def _sequence(self):
        dag = spmv_dag(8, q=0.3, seed=3)
        return coarsen_dag(dag, max(4, dag.n // 4))

    def test_projection_matches_reference_at_every_level(self):
        sequence = self._sequence()
        machine = BspMachine.hierarchical(P=4, delta=2.0, g=1, l=5)
        total = sequence.num_contractions
        assert total > 4
        coarse_dag, _ = sequence.coarse_dag_after(total)
        rng = np.random.default_rng(5)
        proc = rng.integers(0, 4, coarse_dag.n)
        step = legalize_superstep_assignment(coarse_dag, proc, rng.integers(0, 3, coarse_dag.n))
        current = BspSchedule(coarse_dag, machine, proc, step)
        steps = total
        while steps > 0:
            finer = max(0, steps - 3)
            got = refine.project_schedule(sequence, machine, current, steps, finer)
            want = reference_project(sequence, machine, current, steps, finer)
            assert np.array_equal(got.proc, want.proc) and np.array_equal(got.step, want.step)
            current, steps = got, finer

    def test_each_refinement_level_builds_one_dag(self, monkeypatch):
        sequence = self._sequence()
        machine = BspMachine(P=2, g=1, l=5)
        coarse_dag, _ = sequence.coarse_dag_after(sequence.num_contractions)
        coarse = BspSchedule.trivial(coarse_dag, machine)
        builds = []
        real = type(sequence).coarse_dag_after

        def counting(self, num_steps):
            builds.append(num_steps)
            return real(self, num_steps)

        monkeypatch.setattr(type(sequence), "coarse_dag_after", counting)
        refine.uncoarsen_and_refine(sequence, machine, coarse, refine_interval=3, hc_moves_per_refinement=5)
        levels = -(-sequence.num_contractions // 3)
        assert len(builds) == levels
