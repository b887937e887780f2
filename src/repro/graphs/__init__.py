"""Computational DAGs: data structure, generators, I/O and analysis."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".dot": ("dag_to_dot", "schedule_to_dot"),
    ".dag": ("ComputationalDAG", "DagValidationError"),
    ".analysis": ("DagStatistics", "dag_statistics", "communication_to_computation_ratio"),
    ".fine": (
        "spmv_dag",
        "exp_dag",
        "cg_dag",
        "knn_dag",
        "generate_fine_grained",
        "FINE_GRAINED_GENERATORS",
    ),
    ".coarse": (
        "coarse_conjugate_gradient",
        "coarse_bicgstab",
        "coarse_pagerank",
        "coarse_label_propagation",
        "coarse_khop",
        "coarse_kmeans",
        "generate_coarse_grained",
        "COARSE_GRAINED_GENERATORS",
    ),
    ".hyperdag": (
        "dag_to_hyperdag",
        "hyperdag_to_dag",
        "dumps_hyperdag",
        "loads_hyperdag",
        "read_hyperdag",
        "write_hyperdag",
    ),
    ".random": (
        "random_sparse_pattern",
        "banded_pattern",
        "random_layered_dag",
        "erdos_renyi_dag",
    ),
})
