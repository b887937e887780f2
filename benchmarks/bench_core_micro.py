"""Micro-benchmarks of the core components.

Not a paper table: these benchmark the throughput of the building blocks
(cost evaluation, validity checking, schedule description, the baselines,
the initialization heuristics, hill climbing and coarsening) plus the
array-native kernel primitives (CSR construction, local-search state build,
batched move probing) and the experiment engine, so that performance
regressions in the library itself are visible.
"""

import pytest

from repro.baselines.cilk import CilkScheduler
from repro.baselines.hdagg import HDaggScheduler
from repro.baselines.list_schedulers import BlEstScheduler, EtfScheduler
from repro.experiments.runner import run_experiment
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import exp_dag
from repro.heuristics.bspg import BspGreedyScheduler
from repro.heuristics.source import SourceScheduler
from repro.localsearch.comm_hill_climbing import comm_hill_climb
from repro.localsearch.hill_climbing import hill_climb
from repro.localsearch.state import LocalSearchState
from repro.model.cost import evaluate
from repro.model.inspect import describe_schedule
from repro.model.machine import BspMachine
from repro.multilevel.coarsen import coarsen_dag


@pytest.fixture(scope="module")
def dag():
    return exp_dag(10, k=3, q=0.25, seed=13)


@pytest.fixture(scope="module")
def machine():
    return BspMachine(P=8, g=3, l=5)


@pytest.fixture(scope="module")
def hdagg_schedule(dag, machine):
    return HDaggScheduler().schedule(dag, machine)


def test_cost_evaluation(benchmark, hdagg_schedule):
    result = benchmark(evaluate, hdagg_schedule)
    assert result.total > 0


def test_validity_check(benchmark, hdagg_schedule):
    assert benchmark(hdagg_schedule.is_valid)


def test_describe_schedule(benchmark, hdagg_schedule):
    """Text description: one cost evaluation plus one superstep walk."""
    text = benchmark.pedantic(lambda: describe_schedule(hdagg_schedule), rounds=5, iterations=1)
    assert "superstep 0" in text


def test_cilk_scheduler(benchmark, dag, machine):
    sched = benchmark(CilkScheduler(seed=0).schedule, dag, machine)
    assert sched.is_valid()


def test_etf_scheduler(benchmark, dag, machine):
    sched = benchmark(EtfScheduler().schedule, dag, machine)
    assert sched.is_valid()


def test_bl_est_scheduler(benchmark, dag, machine):
    sched = benchmark(BlEstScheduler().schedule, dag, machine)
    assert sched.is_valid()


def test_hdagg_scheduler(benchmark, dag, machine):
    sched = benchmark(HDaggScheduler().schedule, dag, machine)
    assert sched.is_valid()


def test_bspg_scheduler(benchmark, dag, machine):
    sched = benchmark(BspGreedyScheduler().schedule, dag, machine)
    assert sched.is_valid()


def test_source_scheduler(benchmark, dag, machine):
    sched = benchmark(SourceScheduler().schedule, dag, machine)
    assert sched.is_valid()


def test_hill_climbing_hot_path(benchmark, hdagg_schedule):
    """The HC hot loop: probe + apply moves until a local optimum."""
    result = benchmark.pedantic(
        lambda: hill_climb(hdagg_schedule), rounds=5, iterations=1
    )
    assert result.schedule.is_valid()
    assert result.final_cost <= result.initial_cost


def test_comm_hill_climbing(benchmark, hdagg_schedule):
    result = benchmark.pedantic(
        lambda: comm_hill_climb(hdagg_schedule), rounds=5, iterations=1
    )
    assert result.schedule.is_valid()


def test_coarsening(benchmark, dag):
    seq = benchmark.pedantic(
        lambda: coarsen_dag(dag, max(8, dag.n // 3)), rounds=5, iterations=1
    )
    assert seq.num_contractions > 0


# ----------------------------------------------------------------------
# Array-native kernel primitives
# ----------------------------------------------------------------------
def test_csr_construction(benchmark, dag):
    """Cost of building the cached CSR adjacency of a fresh DAG."""

    def build():
        clone = ComputationalDAG(dag.n, list(dag.edges), dag.work, dag.comm)
        return clone.succ_indptr, clone.pred_indptr

    succ_indptr, _ = benchmark(build)
    assert int(succ_indptr[-1]) == dag.num_edges


def test_localsearch_state_build(benchmark, hdagg_schedule):
    """Cost of materializing the incremental local-search state."""
    state = benchmark(LocalSearchState, hdagg_schedule)
    assert state.total_cost == pytest.approx(state.recompute_cost())


def test_move_probe_throughput(benchmark, hdagg_schedule):
    """Batched candidate probing (move_deltas) over every node."""
    state = LocalSearchState(hdagg_schedule)

    def probe_all():
        probed = 0
        for v in range(state.dag.n):
            moves = state.candidate_moves(v)
            if moves:
                probed += len(state.move_deltas(v, moves))
        return probed

    probed = benchmark(probe_all)
    assert probed > 0


def test_parallel_runner_serial_engine(benchmark, machine):
    """Engine overhead: baselines-only experiment through the serial engine."""
    dags = [exp_dag(5, k=2, q=0.3, seed=s) for s in (1, 2)]

    def run():
        return run_experiment(dags, machine, baselines_only=True, jobs=1)

    experiment = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(experiment.instances) == 2
    assert all("Cilk" in inst.costs for inst in experiment.instances)
