"""The combined scheduling pipeline (paper Figures 3 and 4)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ("PipelineConfig", "MultilevelConfig"),
    ".framework": ("run_pipeline", "PipelineResult", "FrameworkScheduler"),
})
