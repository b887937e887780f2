"""The BSP+NUMA machine model, schedules and the cost function."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".machine": ("BspMachine", "MachineValidationError"),
    ".schedule": ("BspSchedule", "ScheduleValidationError", "legalize_superstep_assignment"),
    ".comm": ("CommSchedule", "CommEntry"),
    ".cost": ("CostBreakdown", "evaluate", "superstep_matrices"),
    ".inspect": (
        "SuperstepSummary",
        "summarize_supersteps",
        "describe_schedule",
        "schedule_to_text_gantt",
    ),
    ".simulate": ("simulate_timeline", "ScheduleTimeline", "PhaseInterval", "NodeExecution"),
    ".classical": ("ClassicalSchedule", "classical_to_bsp"),
})
