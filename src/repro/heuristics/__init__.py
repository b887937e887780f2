"""Initialization heuristics for the scheduling framework (paper Section 4.2)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".bspg": ("BspGreedyScheduler",),
    ".source": ("SourceScheduler",),
})
