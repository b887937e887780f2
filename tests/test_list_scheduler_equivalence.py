"""Fast list schedulers match the reference loop, schedule for schedule.

:func:`repro.baselines.list_schedulers.list_schedule` keeps closed-form
arrival rows, a heap for BL-EST and cached row minima for ETF; the policy
semantics (selection keys, tie breaks, memory feasibility, failure
behaviour) must be exactly those of the straight-line reference
implementation (:func:`reference_list_schedule` below).  These tests compare
the two on random DAGs and machines — uniform, NUMA and memory-bounded —
and on one instance per branch of the arrival row and the selection order,
and require identical processor assignments and start times, or the same
:class:`~repro.scheduler.SchedulingError` outcome.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.list_schedulers import _comm_delay_factor, _no_memory_fit, list_schedule
from repro.baselines.memory import MemoryAwareGreedyScheduler
from repro.graphs.dag import ComputationalDAG
from repro.model.classical import ClassicalSchedule, classical_to_bsp
from repro.model.machine import MEMORY_EPS as _EPS
from repro.model.machine import BspMachine
from repro.scheduler import SchedulingError


def reference_list_schedule(
    dag: ComputationalDAG,
    machine: BspMachine,
    policy: str = "bl-est",
    *,
    respect_memory: bool = False,
    prefer_memory_balance: bool = False,
) -> ClassicalSchedule:
    """Straight-line reference implementation of :func:`list_schedule`.

    One python-level EST evaluation per (ready node, processor) pair, exactly
    as the policies are specified; :func:`list_schedule` must match it
    schedule-for-schedule.
    """
    if policy not in ("bl-est", "etf"):
        raise ValueError("policy must be 'bl-est' or 'etf'")
    n = dag.n
    P = machine.P
    proc = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.float64)
    if n == 0:
        return ClassicalSchedule(dag, machine, proc, start)

    bounds = machine.memory_bounds if respect_memory else None
    remaining = bounds.astype(np.float64).copy() if bounds is not None else None
    memory = np.asarray(dag.memory, dtype=np.float64)

    delay = _comm_delay_factor(machine)
    bottom = dag.bottom_level()
    finish = np.zeros(n, dtype=np.float64)
    proc_ready = np.zeros(P, dtype=np.float64)
    remaining_parents = np.diff(dag.pred_indptr).copy()
    ready: Set[int] = set(np.nonzero(remaining_parents == 0)[0].tolist())
    comm = np.asarray(dag.comm, dtype=np.float64)

    def est(v: int, p: int) -> float:
        t = float(proc_ready[p])
        parents = dag.predecessors_array(v)
        if parents.size:
            arrive = finish[parents] + np.where(proc[parents] == p, 0.0, delay * comm[parents])
            t = max(t, float(arrive.max()))
        return t

    def feasible_processors(v: int) -> List[int]:
        if remaining is None:
            return list(range(P))
        fits = [p for p in range(P) if memory[v] <= remaining[p] + _EPS]
        if not fits:
            raise _no_memory_fit(v, memory[v], remaining)
        return fits

    for _ in range(n):
        if not ready:
            raise RuntimeError("list scheduler ran out of ready nodes prematurely")
        if policy == "bl-est":
            v = max(ready, key=lambda x: (bottom[x], -x))
            fits = feasible_processors(v)
            if prefer_memory_balance and remaining is not None:
                best_p = min(fits, key=lambda p: (-remaining[p], est(v, p), p))
            else:
                best_p = min(fits, key=lambda p: (est(v, p), p))
            best_t = est(v, best_p)
        else:  # ETF
            best: Optional[Tuple[float, float, int, int]] = None
            for v_cand in ready:
                for p in feasible_processors(v_cand):
                    t = est(v_cand, p)
                    key = (t, -float(bottom[v_cand]), v_cand, p)
                    if best is None or key < best:
                        best = key
            assert best is not None
            best_t, _, v, best_p = best
        ready.discard(v)
        proc[v] = best_p
        start[v] = best_t
        finish[v] = best_t + float(dag.work[v])
        proc_ready[best_p] = finish[v]
        if remaining is not None:
            remaining[best_p] -= memory[v]
        for child in dag.children(v):
            remaining_parents[child] -= 1
            if remaining_parents[child] == 0:
                ready.add(child)

    return ClassicalSchedule(dag, machine, proc, start)


@st.composite
def random_dags(draw, max_nodes: int = 14):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        num_parents = draw(st.integers(min_value=0, max_value=min(3, v)))
        parents = draw(
            st.lists(st.integers(min_value=0, max_value=v - 1),
                     min_size=num_parents, max_size=num_parents, unique=True)
        )
        edges.extend((u, v) for u in parents)
    work = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    comm = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    memory = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    return ComputationalDAG(n, edges, work, comm, memory=memory, name="hypothesis")


@st.composite
def machines(draw, dag):
    P = draw(st.sampled_from([1, 2, 4, 8, 16, 64]))
    g = draw(st.sampled_from([0.0, 1.0, 3.0]))
    latency = draw(st.sampled_from([0.0, 5.0]))
    numa = None
    kind = draw(st.sampled_from(["uniform", "random", "hierarchical"])) if P >= 2 else "uniform"
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        numa = 1.0 + rng.choice([0.0, 0.5, 2.0], size=(P, P))
        np.fill_diagonal(numa, 0.0)
    elif kind == "hierarchical":
        numa = BspMachine.hierarchical(P, draw(st.sampled_from([1.5, 2.0, 4.0]))).numa
    bound = None
    if draw(st.booleans()):
        total = float(np.sum(dag.memory))
        # From comfortably feasible down to likely-infeasible.
        scale = draw(st.sampled_from([2.0, 1.0, 0.6, 0.3]))
        bound = max(total / P * scale, 0.5)
    return BspMachine(P=P, g=g, l=latency, numa=numa, memory_bound=bound)


def _run(impl, dag, machine, policy, respect_memory, prefer_memory_balance):
    try:
        out = impl(
            dag,
            machine,
            policy,
            respect_memory=respect_memory,
            prefer_memory_balance=prefer_memory_balance,
        )
        return out, None
    except SchedulingError:
        return None, SchedulingError


class TestVectorizedMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_identical_schedules(self, data):
        dag = data.draw(random_dags(), label="dag")
        machine = data.draw(machines(dag), label="machine")
        policy = data.draw(st.sampled_from(["bl-est", "etf"]), label="policy")
        respect_memory = data.draw(st.booleans(), label="respect_memory")
        prefer_memory_balance = data.draw(st.booleans(), label="prefer_memory_balance")

        ref, ref_err = _run(
            reference_list_schedule, dag, machine, policy,
            respect_memory, prefer_memory_balance,
        )
        vec, vec_err = _run(
            list_schedule, dag, machine, policy,
            respect_memory, prefer_memory_balance,
        )
        assert ref_err == vec_err
        if ref_err is None:
            assert np.array_equal(ref.proc, vec.proc)
            assert np.array_equal(ref.start, vec.start)

    def test_empty_dag(self):
        dag = ComputationalDAG(0, [], [], [], name="empty")
        machine = BspMachine(P=2, g=1, l=1)
        for policy in ("bl-est", "etf"):
            out = list_schedule(dag, machine, policy)
            assert out.proc.size == 0 and out.start.size == 0

    @pytest.mark.parametrize("policy", ["bl-est", "etf"])
    @pytest.mark.parametrize("memory", [None, "roomy", "tight", "infeasible"])
    def test_wide_source_layer_at_p64(self, policy, memory):
        """48 zero-arrival sources feeding one layer of children at P=64.

        Every placement raises the one column that is every source row's
        first minimum, so ETF's cached row minima all go stale at once.
        """
        sources = 48
        edges = [(u, sources + c) for c in range(40) for u in (c, (7 * c + 3) % sources)]
        n = sources + 40
        work = [1 + (v * 5) % 7 for v in range(n)]
        comm = [(v * 3) % 5 for v in range(n)]
        memory_weights = [1 + v % 4 for v in range(n)]
        dag = ComputationalDAG(n, edges, work, comm, memory=memory_weights, name="wide")
        # 220 units of memory in all: 4.0 per processor leaves 36 to spare.
        bound = {None: None, "roomy": 8.0, "tight": 4.0, "infeasible": 3.0}[memory]
        machine = BspMachine.hierarchical(64, 2.0, g=2.0, l=5.0).with_memory_bound(bound)
        for prefer_memory_balance in (False, True):
            args = (dag, machine, policy, bound is not None, prefer_memory_balance)
            ref, ref_err = _run(reference_list_schedule, *args)
            vec, vec_err = _run(list_schedule, *args)
            assert ref_err == vec_err
            if not prefer_memory_balance:
                assert (vec_err is None) == (memory != "infeasible")
            if ref_err is None:
                assert np.array_equal(ref.proc, vec.proc)
                assert np.array_equal(ref.start, vec.start)


def _assert_matches_reference(dag, machine, policy, respect_memory=False, prefer_memory_balance=False):
    """Both implementations agree; returns the reference schedule (or None on error)."""
    args = (dag, machine, policy, respect_memory, prefer_memory_balance)
    ref, ref_err = _run(reference_list_schedule, *args)
    vec, vec_err = _run(list_schedule, *args)
    assert ref_err == vec_err
    if ref_err is None:
        assert np.array_equal(ref.proc, vec.proc)
        assert np.array_equal(ref.start, vec.start)
    return ref


def _latest_parent_procs(dag, machine, schedule, v) -> Set[int]:
    """Processors holding the parents of ``v`` with the largest ``finish + delay * c``."""
    delay = _comm_delay_factor(machine)
    b = {u: schedule.start[u] + dag.work[u] + delay * dag.comm[u] for u in dag.parents(v)}
    top = max(b.values())
    return {int(schedule.proc[u]) for u, x in b.items() if x == top}


class TestArrivalBranches:
    """One instance per branch of the arrival row and the selection order,
    each checked against the reference loop and shown to reach its branch."""

    @pytest.mark.parametrize("policy", ["bl-est", "etf"])
    @pytest.mark.parametrize("P, g", [(2, 1.0), (4, 3.0), (8, 2.0)])
    def test_latest_parents_tied_on_two_processors(self, policy, P, g):
        # Pairs of equal sources land on two processors; each join node's
        # two parents then arrive at the same time from both.
        pairs = 4
        edges = [(2 * k, 2 * pairs + k) for k in range(pairs)]
        edges += [(2 * k + 1, 2 * pairs + k) for k in range(pairs)]
        edges += [(2 * pairs + k, 3 * pairs) for k in range(pairs)]
        n = 3 * pairs + 1
        work = [3] * (2 * pairs) + [1 + k for k in range(pairs)] + [2]
        comm = [2] * (2 * pairs) + [1] * (pairs + 1)
        dag = ComputationalDAG(n, edges, work, comm, name="tied")
        machine = BspMachine(P=P, g=g, l=5.0)
        ref = _assert_matches_reference(dag, machine, policy)
        assert any(
            len(_latest_parent_procs(dag, machine, ref, 2 * pairs + k)) == 2 for k in range(pairs)
        )

    @pytest.mark.parametrize("policy", ["bl-est", "etf"])
    @pytest.mark.parametrize("numa", [False, True])
    def test_all_parents_on_one_processor(self, policy, numa):
        # A heavy-communication chain stays on one processor, and the join
        # node reads every chain node from there.
        chain = 6
        edges = [(k - 1, k) for k in range(1, chain)] + [(k, chain) for k in range(chain)]
        edges += [(chain, chain + 1), (chain + 2, chain + 1)]
        n = chain + 3
        work = [2, 1, 3, 1, 2, 1, 4, 1, 5]
        comm = [10, 9, 8, 7, 6, 5, 4, 3, 2]
        dag = ComputationalDAG(n, edges, work, comm, name="one-proc")
        machine = (
            BspMachine.hierarchical(8, 2.0, g=3.0, l=5.0) if numa else BspMachine(P=4, g=3.0, l=5.0)
        )
        ref = _assert_matches_reference(dag, machine, policy)
        assert len({int(ref.proc[u]) for u in range(chain + 1)}) == 1

    @pytest.mark.parametrize("policy", ["bl-est", "etf"])
    @pytest.mark.parametrize("g, zero_comm", [(0.0, False), (2.0, True), (0.0, True)])
    def test_zero_delay_parents(self, policy, g, zero_comm):
        # finish + delay * c == finish: every arrival row is the latest
        # parent finish, reached from any processor.
        n = 30
        edges = [(u, v) for v in range(6, n) for u in (v - 6, (5 * v) % v, v // 2) if u != v]
        work = [1 + (3 * v) % 4 for v in range(n)]
        comm = [0] * n if zero_comm else [(v * 7) % 5 for v in range(n)]
        dag = ComputationalDAG(n, edges, work, comm, name="zero-delay")
        for machine in (BspMachine(P=4, g=g, l=5.0), BspMachine.hierarchical(8, 2.0, g=g, l=5.0)):
            _assert_matches_reference(dag, machine, policy)

    @pytest.mark.parametrize("policy", ["bl-est", "etf"])
    @pytest.mark.parametrize("bound", [None, 12.0])
    def test_wide_in_degree_at_p64_numa(self, policy, bound):
        sources = 150
        edges = [(u, sources) for u in range(sources)]
        edges += [(u, sources + 1) for u in range(0, sources, 2)] + [(sources, sources + 1)]
        n = sources + 2
        work = [1 + (v * 11) % 9 for v in range(n)]
        comm = [(v * 5) % 7 for v in range(n)]
        memory_weights = [1 + v % 3 for v in range(n)]
        dag = ComputationalDAG(n, edges, work, comm, memory=memory_weights, name="wide-in")
        machine = BspMachine.hierarchical(64, 2.0, g=2.0, l=5.0).with_memory_bound(bound)
        for prefer_memory_balance in (False, True):
            ref = _assert_matches_reference(
                dag, machine, policy, bound is not None, prefer_memory_balance
            )
            assert len({int(p) for p in ref.proc[:sources]}) > 1

    def test_equal_bottom_levels_break_ties_by_node_id(self):
        # Independent equal nodes on one processor run in node-id order.
        n = 12
        dag = ComputationalDAG(n, [], [3] * n, [1] * n, name="flat")
        out = list_schedule(dag, BspMachine(P=1, g=1.0, l=5.0), "bl-est")
        assert np.array_equal(out.start, 3.0 * np.arange(n))
        # Equal chains, listed in a shuffled id order, on three processors.
        chains, length = 5, 4
        ids = np.random.default_rng(7).permutation(chains * length).reshape(chains, length)
        edges = [(int(c[k]), int(c[k + 1])) for c in ids for k in range(length - 1)]
        dag = ComputationalDAG(chains * length, edges, [2] * (chains * length),
                               [1] * (chains * length), name="chains")
        assert len(set(dag.bottom_level()[ids[:, 0]].tolist())) == 1
        for policy in ("bl-est", "etf"):
            _assert_matches_reference(dag, BspMachine(P=3, g=1.0, l=5.0), policy)

    @pytest.mark.parametrize("bound", [8.0, 12.0])
    def test_greedy_mem_balance(self, bound):
        n = 24
        edges = [(u, v) for v in range(4, n) for u in (v - 4, v // 3) if u != v]
        work = [1 + (v * 5) % 4 for v in range(n)]
        comm = [1 + v % 3 for v in range(n)]
        memory_weights = [1 + (v * 7) % 3 for v in range(n)]
        dag = ComputationalDAG(n, edges, work, comm, memory=memory_weights, name="greedy-mem")
        machine = BspMachine.hierarchical(8, 2.0, g=1.0, l=5.0).with_memory_bound(bound)
        ref = _assert_matches_reference(dag, machine, "bl-est", True, True)
        expected = classical_to_bsp(ref)
        got = MemoryAwareGreedyScheduler(policy="balance").schedule(dag, machine)
        assert np.array_equal(got.proc, expected.proc)
        assert np.array_equal(got.step, expected.step)
        est = _assert_matches_reference(dag, machine, "bl-est", True, False)
        assert not np.array_equal(ref.proc, est.proc)
