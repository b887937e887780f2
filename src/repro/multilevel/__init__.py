"""Multilevel (coarsen–solve–refine) scheduling (paper Section 4.5)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".coarsen": (
        "coarsen_dag",
        "CoarseningSequence",
        "ContractionRecord",
        "coarse_dag_from_partition",
    ),
    ".refine": ("project_schedule", "uncoarsen_and_refine"),
    ".scheduler": ("MultilevelScheduler", "multilevel_schedule"),
})
