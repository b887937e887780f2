"""Local search methods: hill climbing (paper Section 4.3) and simulated annealing."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".schedulers": (
        "HillClimbingScheduler",
        "SimulatedAnnealingScheduler",
        "CommHillClimbingScheduler",
    ),
    ".annealing": ("simulated_annealing", "SimulatedAnnealingResult"),
    ".state": ("LocalSearchState", "Move"),
    ".hill_climbing": ("hill_climb", "HillClimbingResult"),
    ".comm_hill_climbing": (
        "comm_hill_climb",
        "CommHillClimbingResult",
        "CommScheduleState",
    ),
})
