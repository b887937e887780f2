"""ILP-based scheduling methods (paper Section 4.4) and the MILP layer."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".model": ("IlpModel", "Constraint", "INF"),
    ".solver": ("solve", "SolverResult", "SolverStatus"),
    ".formulation": ("BspIlpFormulation", "build_bsp_ilp", "estimate_variable_count"),
    ".full": ("IlpFullScheduler", "solve_full_ilp"),
    ".commsched": ("solve_comm_schedule_ilp",),
    ".partial": ("PartialIlpImprover", "superstep_windows"),
    ".init": ("IlpInitScheduler", "topological_batches"),
})
