"""Tests for the fine-grained DAG generators (spmv, exp, cg, kNN)."""

import numpy as np
import pytest

from repro.graphs.fine import (
    FINE_GRAINED_GENERATORS,
    cg_dag,
    exp_dag,
    generate_fine_grained,
    knn_dag,
    spmv_dag,
)
from repro.graphs.random import banded_pattern


class TestWeightRules:
    @pytest.mark.parametrize("kind", sorted(FINE_GRAINED_GENERATORS))
    def test_paper_weight_rules(self, kind):
        """Sources have work 1; internal nodes have work max(1, indeg - 1);
        every node has communication weight 1 (paper Appendix B.2)."""
        dag = generate_fine_grained(kind, n=6, q=0.3, seed=2)
        assert np.all(dag.comm == 1)
        for v in dag.nodes():
            indeg = dag.in_degree(v)
            if indeg == 0:
                assert dag.work[v] == 1
            else:
                assert dag.work[v] == max(1, indeg - 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_fine_grained("lu", n=4)


class TestSpmv:
    def test_depth_is_three_levels(self):
        """spmv DAGs are shallow: input -> product -> row sum (paper B.3)."""
        dag = spmv_dag(10, q=0.3, seed=1)
        assert dag.depth() == 3

    def test_structure_matches_pattern(self):
        # Banded pattern with bandwidth 0 = diagonal matrix: one product and
        # one sum per row, plus n matrix entries and n vector entries.
        pattern = banded_pattern(4, bandwidth=0)
        dag = spmv_dag(4, pattern=pattern)
        assert dag.n == 4 + 4 + 4 + 4
        assert dag.depth() == 3

    def test_deterministic_with_seed(self):
        a = spmv_dag(8, q=0.25, seed=42)
        b = spmv_dag(8, q=0.25, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = spmv_dag(8, q=0.25, seed=1)
        b = spmv_dag(8, q=0.25, seed=2)
        assert a.n != b.n or a != b


class TestExp:
    def test_depth_grows_with_iterations(self):
        shallow = exp_dag(6, k=1, q=0.3, seed=3)
        deep = exp_dag(6, k=4, q=0.3, seed=3)
        assert deep.depth() > shallow.depth()
        assert deep.n > shallow.n

    def test_matrix_entries_are_reused_across_iterations(self):
        pattern = banded_pattern(4, bandwidth=1)
        one = exp_dag(4, k=1, pattern=pattern)
        two = exp_dag(4, k=2, pattern=pattern)
        nnz = sum(len(row) for row in pattern)
        # The second iteration adds products and sums but no new A entries.
        added = two.n - one.n
        per_iteration_nodes = nnz + 4  # products + row sums
        assert added == per_iteration_nodes

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            exp_dag(4, k=0)


class TestKnn:
    def test_sparsity_propagates_from_single_source(self):
        """kNN starts from a single nonzero, so the first iteration touches
        only the rows adjacent to the source column."""
        pattern = banded_pattern(6, bandwidth=1)
        dag = knn_dag(6, k=1, pattern=pattern, source_index=0)
        # Much smaller than the dense exp DAG with the same pattern.
        dense = exp_dag(6, k=1, pattern=pattern)
        assert dag.n < dense.n

    def test_is_connected(self):
        dag = knn_dag(8, k=3, q=0.3, seed=4)
        assert dag.largest_weakly_connected_component()[0].n == dag.n

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            knn_dag(4, k=0)


class TestCg:
    def test_contains_expected_per_iteration_structure(self):
        pattern = banded_pattern(5, bandwidth=1)
        one = cg_dag(5, k=1, pattern=pattern)
        two = cg_dag(5, k=2, pattern=pattern)
        three = cg_dag(5, k=3, pattern=pattern)
        # Every CG iteration adds the same number of nodes (the recurrences
        # have a fixed per-iteration footprint for a fixed pattern).
        assert three.n - two.n == two.n - one.n
        assert two.depth() > one.depth()

    def test_single_sink_free_structure_is_acyclic_and_connected_enough(self):
        dag = cg_dag(6, k=2, q=0.3, seed=9)
        assert dag.n > 50
        assert dag.num_edges > dag.n  # reductions create high in-degree nodes

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            cg_dag(4, k=0)
