"""Tests for the coarse-grained (operator-level) DAG generators."""

import numpy as np
import pytest

from repro.graphs.coarse import (
    COARSE_GRAINED_GENERATORS,
    coarse_bicgstab,
    coarse_conjugate_gradient,
    coarse_khop,
    coarse_kmeans,
    coarse_label_propagation,
    coarse_pagerank,
    generate_coarse_grained,
)


class TestWeightRules:
    @pytest.mark.parametrize("kind", sorted(COARSE_GRAINED_GENERATORS))
    def test_paper_weight_rules(self, kind):
        dag = generate_coarse_grained(kind, iterations=3) if kind != "kmeans" else coarse_kmeans(3)
        assert np.all(dag.comm == 1)
        for v in dag.nodes():
            indeg = dag.in_degree(v)
            expected = 1 if indeg == 0 else max(1, indeg - 1)
            assert dag.work[v] == expected

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_coarse_grained("fft")


class TestSizeScaling:
    @pytest.mark.parametrize(
        "builder",
        [
            coarse_conjugate_gradient,
            coarse_bicgstab,
            coarse_pagerank,
            coarse_label_propagation,
            coarse_khop,
        ],
        ids=lambda b: b.__name__,
    )
    def test_nodes_grow_linearly_with_iterations(self, builder):
        sizes = [builder(it).n for it in (1, 2, 3, 4)]
        increments = [b - a for a, b in zip(sizes, sizes[1:])]
        assert len(set(increments)) == 1  # constant per-iteration footprint
        assert increments[0] > 0

    def test_invalid_iterations_rejected(self):
        for builder in (coarse_conjugate_gradient, coarse_pagerank, coarse_khop):
            with pytest.raises(ValueError):
                builder(0)


class TestStructure:
    def test_cg_depth_grows_with_iterations(self):
        assert coarse_conjugate_gradient(4).depth() > coarse_conjugate_gradient(1).depth()

    def test_iterative_methods_have_single_weak_component(self):
        for dag in (coarse_conjugate_gradient(3), coarse_pagerank(3), coarse_bicgstab(2)):
            assert dag.largest_weakly_connected_component()[0].n == dag.n

    def test_kmeans_scales_with_clusters(self):
        few = coarse_kmeans(2, clusters=2)
        many = coarse_kmeans(2, clusters=6)
        assert many.n > few.n

    def test_matrix_node_is_reused(self):
        """The input matrix A is a single node feeding every iteration."""
        dag = coarse_pagerank(4)
        # Node 0 is A; it must have one successor per iteration plus degree-1 helper.
        assert dag.out_degree(0) >= 4

    def test_names_are_descriptive(self):
        assert "cg" in coarse_conjugate_gradient(2).name
        assert "pagerank" in coarse_pagerank(2).name
