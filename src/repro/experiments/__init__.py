"""Experiment harness: datasets, runners and table/figure regeneration."""

from .._lazy import lazy_exports
from .sweep import sweep as sweep

# ``sweep`` names both a submodule and the function it defines.  Importing
# the submodule would bind the module over a lazily resolved name, so the
# function is imported eagerly above, together with its submodule.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".sweep": ("sweep", "SweepRecord", "MachineSpec", "records_to_csv"),
    ".datasets": (
        "DATASET_RANGES",
        "dataset_range",
        "build_dataset",
        "build_training_set",
        "fit_fine_grained",
    ),
    ".report": ("Table", "geometric_mean", "improvement", "format_percent"),
    ".runner": (
        "InstanceResult",
        "ExperimentResult",
        "run_experiment",
    ),
    ".tables": ("tables",),
    ".persistence": (
        "save_experiment",
        "load_experiment",
        "experiment_to_dict",
        "experiment_from_dict",
        "schedule_to_dict",
        "schedule_from_dict",
    ),
})
