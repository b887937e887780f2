"""repro — reproduction of "Efficient Multi-Processor Scheduling in
Increasingly Realistic Models" (Papp, Anegg, Karanasiou, Yzelman; SPAA 2024).

The package implements the paper's NUMA-extended BSP scheduling model, its
computational-DAG database generators, every baseline and every scheduling
algorithm of the proposed framework (initialization heuristics, hill-climbing
local search, ILP-based methods, the multilevel scheduler), and an experiment
harness that regenerates the paper's tables and figures.

Quick start (declarative API)::

    from repro import DagSpec, MachineSpec, ProblemSpec, SolveRequest, solve

    spec = ProblemSpec(
        dag=DagSpec.generator("spmv", n=30, q=0.2, seed=0),
        machine=MachineSpec(P=4, g=3, l=5),
    )
    print(solve(SolveRequest(spec=spec, scheduler="framework")).total_cost)

or imperatively::

    from repro import BspMachine, spmv_dag, run_pipeline
    from repro.baselines import CilkScheduler

    dag = spmv_dag(30, q=0.2, seed=0)
    machine = BspMachine(P=4, g=3, l=5)
    result = run_pipeline(dag, machine)
    print("ours:", result.final_cost, " cilk:", CilkScheduler().schedule(dag, machine).cost())

Every name below resolves on first use: ``import repro`` loads no
subpackage, and ``from repro import solve`` loads only what ``solve`` needs.
"""

from ._lazy import lazy_exports

__version__ = "2.1.0"

_exports, __getattr__, __dir__ = lazy_exports(globals(), {
    # declarative solve API
    ".api": ("solve", "solve_many", "compare"),
    ".spec": ("DagSpec", "MachineSpec", "ProblemSpec", "SolveRequest", "SolveResult", "SpecError"),
    # registry
    ".registry": (
        "SchedulerInfo",
        "register_scheduler",
        "scheduler_info",
        "parse_scheduler_spec",
        "make_scheduler",
        "available_schedulers",
    ),
    # graphs
    ".graphs": (
        "ComputationalDAG",
        "spmv_dag",
        "exp_dag",
        "cg_dag",
        "knn_dag",
        "coarse_conjugate_gradient",
        "coarse_pagerank",
        "dag_statistics",
        "read_hyperdag",
        "write_hyperdag",
    ),
    # model
    ".model": (
        "BspMachine",
        "BspSchedule",
        "CommSchedule",
        "CostBreakdown",
        "evaluate",
        "ClassicalSchedule",
        "classical_to_bsp",
        "describe_schedule",
        "schedule_to_text_gantt",
    ),
    # scheduling
    ".scheduler": ("Scheduler", "SchedulingError"),
    ".pipeline": (
        "PipelineConfig",
        "MultilevelConfig",
        "run_pipeline",
        "PipelineResult",
        "FrameworkScheduler",
    ),
    ".multilevel": ("MultilevelScheduler", "multilevel_schedule"),
    # portfolio scheduling & solution cache
    ".portfolio": (
        "AdaptiveScheduler",
        "InstanceFeatures",
        "PortfolioScheduler",
        "SolutionCache",
        "extract_features",
        "instance_signature",
    ),
})
__all__ = ["__version__", *_exports]
