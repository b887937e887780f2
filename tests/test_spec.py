"""Tests for the declarative spec types (repro.spec)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import spmv_dag
from repro.model.machine import BspMachine
from repro.spec import (
    DagSpec,
    MachineSpec,
    ProblemSpec,
    SolveRequest,
    SolveResult,
    SpecError,
)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
machine_specs = st.one_of(
    st.builds(
        MachineSpec,
        P=st.integers(1, 16),
        g=st.floats(0, 10, allow_nan=False),
        l=st.floats(0, 20, allow_nan=False),
    ),
    st.builds(
        MachineSpec,
        P=st.sampled_from([2, 4, 8]),
        g=st.floats(0, 10, allow_nan=False),
        l=st.floats(0, 20, allow_nan=False),
        delta=st.floats(1, 5, allow_nan=False),
    ),
    st.builds(
        MachineSpec,
        P=st.just(4),
        groups=st.just((2, 2)),
        intra=st.floats(0.5, 2, allow_nan=False),
        inter=st.floats(2, 8, allow_nan=False),
    ),
)

generator_dag_specs = st.builds(
    lambda kind, n, q, seed: DagSpec.generator(kind, n=n, q=q, seed=seed),
    kind=st.sampled_from(["spmv", "exp", "cg", "knn"]),
    n=st.integers(2, 12),
    q=st.floats(0.05, 0.9, allow_nan=False),
    seed=st.integers(0, 1000),
)

dag_specs = st.one_of(
    generator_dag_specs,
    st.just(DagSpec.hyperdag("some/file.hdag")),
    st.just(DagSpec.from_dag(spmv_dag(5, q=0.4, seed=11))),
)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    @given(machine_specs)
    @settings(max_examples=60, deadline=None)
    def test_machine_spec_json_identity(self, spec):
        assert MachineSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @given(dag_specs)
    @settings(max_examples=60, deadline=None)
    def test_dag_spec_json_identity(self, spec):
        assert DagSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @given(dag_specs, machine_specs)
    @settings(max_examples=40, deadline=None)
    def test_problem_spec_json_identity(self, dag, machine):
        spec = ProblemSpec(dag=dag, machine=machine)
        assert ProblemSpec.from_json(spec.to_json()) == spec

    @given(
        dag_specs,
        machine_specs,
        st.sampled_from(["framework", "cilk", "hc(max_moves=5)", "sa(steps=10, seed=3)"]),
        st.one_of(st.none(), st.integers(0, 99)),
        st.one_of(st.none(), st.floats(0.1, 60, allow_nan=False)),
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_request_json_identity(self, dag, machine, scheduler, seed, budget):
        request = SolveRequest(
            spec=ProblemSpec(dag=dag, machine=machine),
            scheduler=scheduler,
            seed=seed,
            time_budget=budget,
        )
        assert SolveRequest.from_json(request.to_json()) == request

    def test_solve_result_json_identity(self):
        result = SolveResult(
            scheduler="cilk",
            dag_name="spmv_n8",
            num_nodes=66,
            machine=MachineSpec(P=2, g=2, l=3),
            total_cost=77.0,
            work_cost=39.0,
            comm_cost=26.0,
            latency_cost=12.0,
            num_supersteps=4,
            wall_seconds=0.25,
            scheduler_description="Cilk",
        )
        # Timing excluded by default: deterministic wire format.
        assert "wall_seconds" not in result.to_dict()
        restored = SolveResult.from_json(result.to_json(timing=True))
        assert restored == result
        untimed = SolveResult.from_json(result.to_json())
        assert untimed.total_cost == result.total_cost
        assert untimed.wall_seconds == 0.0


# ----------------------------------------------------------------------
# Building instances
# ----------------------------------------------------------------------
class TestBuild:
    def test_generator_spec_builds_named_dag(self):
        dag = DagSpec.generator("spmv", n=6, q=0.3, seed=4).build()
        assert dag.n > 0 and "spmv" in dag.name

    def test_inline_spec_round_trips_dag_structure(self):
        original = spmv_dag(6, q=0.3, seed=4)
        rebuilt = DagSpec.from_dag(original).build()
        assert rebuilt.n == original.n
        assert rebuilt.edges == original.edges
        assert rebuilt.name == original.name

    def test_hyperdag_spec_reads_file(self, tmp_path):
        from repro.graphs.hyperdag import write_hyperdag

        path = tmp_path / "x.hdag"
        original = spmv_dag(5, q=0.4, seed=0)
        write_hyperdag(original, path)
        rebuilt = DagSpec.hyperdag(path).build()
        assert rebuilt.n == original.n

    def test_machine_spec_delta_builds_hierarchy(self):
        machine = MachineSpec(P=8, g=1, l=5, delta=3).build()
        assert not machine.is_uniform
        assert machine.coefficient(0, 7) == 9.0

    def test_machine_spec_explicit_numa_round_trip(self):
        original = BspMachine.hierarchical(P=4, delta=2, g=1, l=5)
        spec = MachineSpec.from_machine(original)
        rebuilt = spec.build()
        assert (rebuilt.numa == original.numa).all()

    def test_problem_spec_from_instance(self):
        dag = spmv_dag(5, q=0.4, seed=1)
        machine = BspMachine(P=2, g=1, l=2)
        spec = ProblemSpec.from_instance(dag, machine)
        assert spec.build_dag().edges == dag.edges
        assert spec.build_machine().P == 2

    def test_from_dag_matches_per_element_conversion(self):
        base = spmv_dag(6, q=0.4, seed=2)
        work = np.asarray(base.work)
        dag = ComputationalDAG(
            base.n, list(base.edges), work=work, comm=np.asarray(base.comm),
            name=base.name, memory=work * 3 + 1,
        )
        # The inline payload as the per-element conversion wrote it.
        expected = {
            "source": "inline",
            "n": int(dag.n),
            "edges": [[int(u), int(v)] for u, v in dag.edges],
            "work": [int(w) for w in np.asarray(dag.work)],
            "comm": [int(c) for c in np.asarray(dag.comm)],
            "memory": [int(m) for m in np.asarray(dag.memory)],
            "name": dag.name,
        }
        spec = DagSpec.from_dag(dag)
        assert json.dumps(spec.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert "memory" not in DagSpec.from_dag(base).to_dict()

    def test_inline_values_are_normalized_to_ints(self):
        spec = DagSpec(source="inline", n=2, edges=[[0, 1.0]], work=[1.7, 2], comm=(np.int64(3), 1))
        assert spec.edges == ((0, 1),)
        assert spec.work == (1, 2)
        assert spec.comm == (3, 1)
        assert all(type(x) is int for x in spec.edges[0] + spec.work + spec.comm)


class TestPurity:
    @pytest.mark.parametrize(
        "spec, pure",
        [
            (DagSpec(source="inline", n=2, edges=((0, 1),)), True),
            (DagSpec.generator("pagerank", iterations=3), True),
            (DagSpec.generator("kmeans"), True),
            (DagSpec.generator("spmv", n=6, q=0.3, seed=4), True),
            (DagSpec.generator("knn", n=6, q=0.3, k=2, seed=0), True),
            (DagSpec.generator("spmv", n=6, q=0.3), False),
            (DagSpec.generator("exp", n=6, q=0.3, k=2, seed=None), False),
            (DagSpec.generator("spmv", n=6, q=0.3, seed=True), False),
            (DagSpec.generator("spmv", n=3, pattern=[[0], [1], [0, 2]]), True),
            # ``cg`` names a fine and a coarse generator; build() picks the
            # fine one, so a seedless ``cg`` is a random draw.
            (DagSpec.generator("cg", n=6, q=0.3, k=1), False),
            (DagSpec.generator("cg", n=6, q=0.3, k=1, seed=3), True),
            (DagSpec.hyperdag("some/file.hdag"), False),
            (DagSpec.generator("no-such-kind"), False),
        ],
    )
    def test_pure_follows_build_dispatch(self, spec, pure):
        assert spec.pure is pure

    def test_pure_specs_build_equal_dags(self):
        for spec in (DagSpec.generator("spmv", n=6, q=0.3, seed=4), DagSpec.generator("bicgstab")):
            assert spec.pure
            assert DagSpec.from_dag(spec.build()) == DagSpec.from_dag(spec.build())


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_unknown_source_rejected(self):
        with pytest.raises(SpecError):
            DagSpec(source="magic")

    def test_generator_requires_kind(self):
        with pytest.raises(SpecError):
            DagSpec(source="generator")

    def test_hyperdag_requires_path(self):
        with pytest.raises(SpecError):
            DagSpec(source="hyperdag")

    def test_unknown_generator_kind_fails_at_build(self):
        with pytest.raises(SpecError, match="unknown generator kind"):
            DagSpec.generator("fft", n=4).build()

    def test_nonpositive_processors_rejected(self):
        with pytest.raises(SpecError):
            MachineSpec(P=0)

    def test_conflicting_numa_descriptions_rejected(self):
        with pytest.raises(SpecError, match="conflicting NUMA"):
            MachineSpec(P=4, delta=2, groups=(2, 2))

    def test_empty_scheduler_rejected(self):
        spec = ProblemSpec(dag=DagSpec.generator("spmv", n=4), machine=MachineSpec(P=2))
        with pytest.raises(SpecError):
            SolveRequest(spec=spec, scheduler="  ")

    def test_request_missing_spec_section(self):
        with pytest.raises(SpecError, match="missing the 'spec'"):
            SolveRequest.from_dict({"scheduler": "cilk"})
