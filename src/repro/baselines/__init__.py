"""Baseline schedulers the paper compares against."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".cilk": ("CilkScheduler", "simulate_work_stealing"),
    ".list_schedulers": ("BlEstScheduler", "EtfScheduler", "list_schedule"),
    ".hdagg": ("HDaggScheduler",),
    ".memory": ("MemoryAwareGreedyScheduler", "repair_memory"),
    ".trivial": ("TrivialScheduler", "LevelRoundRobinScheduler"),
})
