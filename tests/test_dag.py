"""Unit tests for the ComputationalDAG data structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.dag import ComputationalDAG, DagValidationError


class TestConstruction:
    def test_basic_properties(self, diamond_dag):
        assert diamond_dag.n == 4
        assert diamond_dag.num_edges == 4
        assert diamond_dag.total_work() == 8
        assert diamond_dag.total_comm() == 5
        assert len(diamond_dag) == 4

    def test_default_weights_are_one(self):
        dag = ComputationalDAG(3, [(0, 1), (1, 2)])
        assert list(dag.work) == [1, 1, 1]
        assert list(dag.comm) == [1, 1, 1]

    def test_duplicate_edges_are_deduplicated(self):
        dag = ComputationalDAG(2, [(0, 1), (0, 1), (0, 1)])
        assert dag.num_edges == 1

    def test_empty_dag(self):
        dag = ComputationalDAG(0, [])
        assert dag.n == 0
        assert dag.depth() == 0
        assert dag.topological_order() == []

    def test_rejects_self_loop(self):
        with pytest.raises(DagValidationError):
            ComputationalDAG(2, [(0, 0)])

    def test_rejects_cycle(self):
        with pytest.raises(DagValidationError):
            ComputationalDAG(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(DagValidationError):
            ComputationalDAG(2, [(0, 5)])

    def test_rejects_negative_weights(self):
        with pytest.raises(DagValidationError):
            ComputationalDAG(2, [(0, 1)], work=[-1, 1])

    def test_rejects_wrong_weight_length(self):
        with pytest.raises(DagValidationError):
            ComputationalDAG(3, [(0, 1)], work=[1, 1])

    def test_rejects_negative_node_count(self):
        with pytest.raises(DagValidationError):
            ComputationalDAG(-1, [])


class TestAdjacency:
    def test_children_and_parents(self, diamond_dag):
        assert sorted(diamond_dag.children(0)) == [1, 2]
        assert sorted(diamond_dag.parents(3)) == [1, 2]
        assert diamond_dag.parents(0) == []
        assert diamond_dag.children(3) == []

    def test_degrees(self, diamond_dag):
        assert diamond_dag.out_degree(0) == 2
        assert diamond_dag.in_degree(3) == 2
        assert diamond_dag.in_degree(0) == 0

    def test_sources_and_sinks(self, diamond_dag, fork_join_dag):
        assert diamond_dag.sources() == [0]
        assert diamond_dag.sinks() == [3]
        assert fork_join_dag.sources() == [0]
        assert fork_join_dag.sinks() == [7]

    def test_has_edge(self, diamond_dag):
        assert diamond_dag.has_edge(0, 1)
        assert not diamond_dag.has_edge(1, 0)
        assert not diamond_dag.has_edge(0, 3)


class TestOrderings:
    def test_topological_order_respects_edges(self, layered_dag):
        order = layered_dag.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(layered_dag.n))
        for (u, v) in layered_dag.edges:
            assert pos[u] < pos[v]

    def test_levels_of_chain(self, chain_dag):
        assert list(chain_dag.node_levels()) == [0, 1, 2, 3, 4]
        assert chain_dag.depth() == 5

    def test_level_sets_partition_nodes(self, layered_dag):
        sets = layered_dag.level_sets()
        flat = [v for s in sets for v in s]
        assert sorted(flat) == list(range(layered_dag.n))

    def test_bottom_level_diamond(self, diamond_dag):
        # bottom level = max work on a path starting at the node (incl. itself)
        bl = diamond_dag.bottom_level()
        assert bl[3] == 2
        assert bl[1] == 3 + 2
        assert bl[2] == 1 + 2
        assert bl[0] == 2 + 3 + 2

    def test_top_level_diamond(self, diamond_dag):
        tl = diamond_dag.top_level()
        assert tl[0] == 0
        assert tl[1] == 2
        assert tl[3] == 2 + 3

    def test_critical_path_work(self, diamond_dag, chain_dag):
        assert diamond_dag.critical_path_work() == 7
        assert chain_dag.critical_path_work() == 5


def reference_levels(n, edges, work):
    """Levels, bottom levels and top levels by repeated relaxation of the
    raw edge list until nothing changes (no topological order involved)."""
    level = [0] * n
    bottom = list(work)
    top = [0] * n
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if level[v] < level[u] + 1:
                level[v] = level[u] + 1
                changed = True
            if bottom[u] < work[u] + bottom[v]:
                bottom[u] = work[u] + bottom[v]
                changed = True
            if top[v] < top[u] + work[u]:
                top[v] = top[u] + work[u]
                changed = True
    return level, bottom, top


def assert_levels_match_reference(n, edges, work):
    dag = ComputationalDAG(n, edges, work=work)
    level, bottom, top = reference_levels(n, edges, work)
    depth = max(level) + 1 if n else 0
    assert dag.node_levels().tolist() == level
    assert dag.bottom_level().tolist() == bottom
    assert dag.top_level().tolist() == top
    assert dag.depth() == depth
    assert dag.level_sets() == [
        [v for v in range(n) if level[v] == k] for k in range(depth)
    ]
    assert dag.critical_path_work() == max(bottom, default=0)
    for arr in (dag.node_levels(), dag.bottom_level(), dag.top_level()):
        assert arr.dtype == np.int64 and arr.shape == (n,)


@st.composite
def shuffled_dags(draw):
    """Random DAGs under shuffled node labels, some around a long chain.

    Node ``label[r]`` has rank ``r``; every edge goes from a lower to a
    higher rank.  The optional chain runs through consecutive ranks, so its
    depth is at least its length; nodes no edge touches stay isolated.
    """
    extra = draw(st.integers(min_value=0, max_value=20))
    chain = draw(st.sampled_from([0, 0, 1, 2, 300, 330]))
    n = extra + chain
    if n == 0:
        return 0, [], []
    label = draw(st.permutations(range(n)))
    first = draw(st.integers(min_value=0, max_value=extra))
    ranks = [(first + i, first + i + 1) for i in range(chain - 1)]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * extra + 5,
    ))
    ranks += [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    ranks = draw(st.permutations(ranks))
    edges = [(label[a], label[b]) for a, b in ranks]
    work = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, edges, work


class TestLevelsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(case=shuffled_dags())
    def test_random_shuffled_dags(self, case):
        assert_levels_match_reference(*case)

    @pytest.mark.parametrize(
        "n, edges, work",
        [
            (0, [], []),
            (4, [], [1, 0, 2, 3]),                       # isolated nodes only
            (3, [(2, 1), (1, 0)], [0, 0, 0]),            # zero work, reversed labels
            (305, [(v + 1, v) for v in range(300)], [1] * 305),  # 301-node chain + 4 isolated
        ],
    )
    def test_fixed_cases(self, n, edges, work):
        assert_levels_match_reference(n, edges, work)


class TestDerivedGraphs:
    def test_subgraph(self, diamond_dag):
        sub, mapping = diamond_dag.subgraph([0, 1, 3])
        assert sub.n == 3
        assert (mapping[0], mapping[1]) in [tuple(e) for e in sub.edges]
        assert (mapping[1], mapping[3]) in [tuple(e) for e in sub.edges]
        # Edge through removed node 2 must not appear.
        assert sub.num_edges == 2
        assert sub.work[mapping[1]] == diamond_dag.work[1]

    def test_largest_weakly_connected_component(self):
        # Two components: a 3-chain and an isolated pair.
        dag = ComputationalDAG(5, [(0, 1), (1, 2), (3, 4)])
        comp, mapping = dag.largest_weakly_connected_component()
        assert comp.n == 3
        assert set(mapping) == {0, 1, 2}


class TestEquality:
    def test_equality_and_inequality(self, diamond_dag):
        clone = ComputationalDAG(4, list(diamond_dag.edges), diamond_dag.work, diamond_dag.comm)
        assert clone == diamond_dag
        other = ComputationalDAG(4, list(diamond_dag.edges), [1, 1, 1, 1], diamond_dag.comm)
        assert other != diamond_dag
        assert diamond_dag != "not a dag"


class TestMemoryWeights:
    def test_memory_defaults_to_work(self):
        dag = ComputationalDAG(3, [(0, 1)], work=[2, 3, 4])
        assert list(dag.memory) == [2, 3, 4]
        assert dag.total_memory() == 9

    def test_explicit_memory_round_trips_through_derived_graphs(self):
        dag = ComputationalDAG(
            4, [(0, 1), (1, 2), (2, 3)], work=[1, 1, 1, 1], memory=[5, 1, 2, 3]
        )
        sub, mapping = dag.subgraph([1, 2, 3])
        assert list(sub.memory) == [1, 2, 3]

    def test_negative_memory_rejected(self):
        with pytest.raises(DagValidationError):
            ComputationalDAG(2, [(0, 1)], memory=[1, -1])

    def test_memory_participates_in_equality(self):
        a = ComputationalDAG(2, [(0, 1)], work=[1, 1], memory=[1, 1])
        b = ComputationalDAG(2, [(0, 1)], work=[1, 1], memory=[2, 1])
        assert a != b


class TestCacheHandling:
    """The topological order and CSR arrays are cached.  The structure is
    documented immutable; the one supported mutation — replacing ``edges`` —
    rebuilds adjacency, caches and validity eagerly through ``__setattr__``,
    and a future helper mutating the adjacency in place must call
    ``_invalidate()``."""

    def test_invalidate_clears_caches(self, diamond_dag):
        diamond_dag.topological_order()
        _ = diamond_dag.succ_indptr
        diamond_dag._invalidate()
        assert diamond_dag._topo_cache is None
        assert diamond_dag._csr_cache is None

    def test_replaced_edge_list_does_not_serve_stale_structure(self):
        dag = ComputationalDAG(3, [(0, 1)])
        assert dag.succ_indices.tolist() == [1]  # populate the CSR cache
        order = dag.topological_order()          # and the topo cache
        dag.edges = [(0, 1), (1, 2)]
        # Everything structural reflects the replacement: CSR, adjacency
        # lists, degrees and the topological order.
        assert dag.num_edges == 2
        assert dag.succ_indices.tolist() == [1, 2]
        assert dag.pred_indices.tolist() == [0, 1]
        assert dag.children(1) == [2]
        assert dag.parents(2) == [1]
        assert dag.topological_order() == [0, 1, 2]

    def test_replacement_revalidates_acyclicity_and_range(self):
        dag = ComputationalDAG(2, [(0, 1)])
        with pytest.raises(DagValidationError):
            dag.edges = [(0, 1), (1, 0)]  # cycle
        dag2 = ComputationalDAG(2, [(0, 1)])
        with pytest.raises(DagValidationError):
            dag2.edges = [(0, 5)]  # out of range

    def test_rejected_replacement_leaves_structure_unchanged(self):
        dag = ComputationalDAG(3, [(0, 1)])
        for bad in ([(0, 1), (1, 2), (2, 0)], [(0, 7)]):
            with pytest.raises(DagValidationError):
                dag.edges = bad
            # The rejected edge set must not be partially committed.
            assert dag.edges == ((0, 1),)
            assert dag.children(0) == [1] and dag.children(1) == []
            order = dag.topological_order()
            assert sorted(order) == [0, 1, 2]
            assert order.index(0) < order.index(1)

    def test_replacement_normalizes_to_sorted_deduped_tuple(self):
        dag = ComputationalDAG(3, [(0, 1)])
        dag.edges = [(1, 2), (0, 1), (1, 2)]
        assert dag.edges == ((0, 1), (1, 2))
        assert isinstance(dag.edges, tuple)

    def test_unchanged_edges_keep_the_cache_object(self, diamond_dag):
        first = diamond_dag.succ_indptr
        second = diamond_dag.succ_indptr
        assert first is second

    def test_in_place_edge_mutation_is_impossible(self, diamond_dag):
        # Edges are a tuple precisely so that in-place mutation (which no
        # replacement hook could observe) cannot happen.
        with pytest.raises((TypeError, AttributeError)):
            diamond_dag.edges[0] = (0, 3)
        with pytest.raises((TypeError, AttributeError)):
            diamond_dag.edges.append((0, 3))
