"""The combined scheduling framework of the paper (Figure 3).

The pipeline runs the initialization heuristics (BSPg, Source and — for few
processors — ILPinit), improves each initial schedule with the hill-climbing
local searches HC and HCcs, keeps the best schedule found so far, and then
applies the ILP-based methods: the full ILP when the estimated problem size
permits, otherwise the partial window ILP, followed by the
communication-schedule ILP.

:func:`run_pipeline` returns a :class:`PipelineResult` that records the best
schedule *after every stage* — exactly the "Init", "HCcs" and "ILP" series
plotted in the paper's Figures 5 and 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graphs.dag import ComputationalDAG
from ..heuristics.bspg import BspGreedyScheduler
from ..heuristics.source import SourceScheduler
from ..ilp.commsched import solve_comm_schedule_ilp
from ..ilp.formulation import estimate_variable_count
from ..ilp.full import solve_full_ilp
from ..ilp.init import IlpInitScheduler
from ..ilp.partial import PartialIlpImprover
from ..localsearch.comm_hill_climbing import comm_hill_climb
from ..localsearch.hill_climbing import hill_climb
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from ..scheduler import Scheduler
from .config import PipelineConfig

__all__ = ["PipelineResult", "run_pipeline", "FrameworkScheduler"]


@dataclass
class PipelineResult:
    """Best schedule and cost after each pipeline stage."""

    schedule: BspSchedule
    #: Cost of the best *raw* initialization schedule ("Init" in the figures).
    init_cost: float
    #: Cost after HC + HCcs on the best candidate ("HCcs" in the figures).
    local_search_cost: float
    #: Final cost after the ILP stages ("ILP" in the figures).
    final_cost: float
    #: Which initializer produced the best starting schedule.
    best_initializer: str
    #: Cost after the assignment ILPs (ILPfull / ILPpart) but before ILPcs —
    #: the "ILPpart" column of the paper's Table 7.
    ilp_assignment_cost: float = float("nan")
    #: Per-initializer raw costs (diagnostics, Tables 4 and 5).
    initializer_costs: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds spent in each stage.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def stage_costs(self) -> Dict[str, float]:
        """Costs keyed by the paper's stage labels."""
        return {
            "Init": self.init_cost,
            "HCcs": self.local_search_cost,
            "ILP": self.final_cost,
        }


def _initializers(machine: BspMachine, config: PipelineConfig) -> List[Scheduler]:
    inits: List[Scheduler] = []
    if config.use_bspg:
        inits.append(BspGreedyScheduler())
    if config.use_source:
        inits.append(SourceScheduler())
    if config.use_ilp_init and machine.P <= config.ilp_init_max_processors:
        inits.append(
            IlpInitScheduler(
                max_variables=config.ilp_init_max_variables,
                time_limit_per_batch=config.ilp_init_time_limit,
            )
        )
    if not inits:
        inits.append(BspGreedyScheduler())
    return inits


def run_pipeline(
    dag: ComputationalDAG,
    machine: BspMachine,
    config: Optional[PipelineConfig] = None,
) -> PipelineResult:
    """Run the full scheduling pipeline of the paper on one instance."""
    if config is None:
        config = PipelineConfig()
    with _trace.span("pipeline", nodes=dag.n, P=machine.P) as tspan:
        return _run_pipeline(dag, machine, config, tspan)


def _run_pipeline(
    dag: ComputationalDAG,
    machine: BspMachine,
    config: PipelineConfig,
    tspan: "_trace.SpanLike",
) -> PipelineResult:
    stage_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Stage 1: initialization heuristics
    # ------------------------------------------------------------------
    t0 = time.monotonic()
    with _trace.span("init") as stage_span:
        init_schedules: List[Tuple[str, BspSchedule, float]] = []
        for scheduler in _initializers(machine, config):
            sched = scheduler.schedule(dag, machine)
            init_schedules.append((scheduler.name, sched, float(sched.cost())))
        initializer_costs = {name: cost for name, _, cost in init_schedules}
        best_init_name, _, init_cost = min(init_schedules, key=lambda item: item[2])
        if _trace.enabled():
            stage_span.annotate(best=best_init_name, cost=init_cost)
    stage_seconds["init"] = time.monotonic() - t0

    # ------------------------------------------------------------------
    # Stage 2: HC + HCcs on every initial schedule, keep the best
    # ------------------------------------------------------------------
    t0 = time.monotonic()
    with _trace.span("local_search") as stage_span:
        best_schedule: Optional[BspSchedule] = None
        best_cost = float("inf")
        for _, sched, _ in init_schedules:
            hc_result = hill_climb(
                sched,
                variant=config.hc_variant,
                max_moves=config.hc_max_moves,
                time_limit=config.hc_time_limit,
            )
            improved = comm_hill_climb(
                hc_result.schedule, time_limit=config.hccs_time_limit
            ).schedule
            cost = float(improved.cost())
            if cost < best_cost:
                best_cost = cost
                best_schedule = improved
        assert best_schedule is not None
        local_search_cost = best_cost
        if _trace.enabled():
            stage_span.annotate(cost=local_search_cost)
    stage_seconds["local_search"] = time.monotonic() - t0

    # ------------------------------------------------------------------
    # Stage 3: ILP-based methods
    # ------------------------------------------------------------------
    t0 = time.monotonic()
    with _trace.span("ilp") as stage_span:
        current = best_schedule
        current_cost = best_cost

        num_supersteps = max(current.num_supersteps, 1)
        full_applicable = (
            config.use_ilp_full
            and estimate_variable_count(dag.n, num_supersteps, machine.P)
            <= config.ilp_full_max_variables
        )
        if full_applicable:
            solved = solve_full_ilp(
                dag, machine, num_supersteps, time_limit=config.ilp_full_time_limit
            )
            if solved is not None and solved.cost() < current_cost:
                current = solved
                current_cost = float(solved.cost())

        if config.use_ilp_partial and not full_applicable:
            improver = PartialIlpImprover(
                max_variables=config.ilp_partial_max_variables,
                time_limit_per_window=config.ilp_partial_time_limit,
            )
            improved = improver.improve(current)
            if improved.cost() < current_cost:
                current = improved
                current_cost = float(improved.cost())

        ilp_assignment_cost = current_cost

        if config.use_ilp_cs:
            improved = solve_comm_schedule_ilp(current, time_limit=config.ilp_cs_time_limit)
            if improved is not None and improved.cost() <= current_cost:
                current = improved
                current_cost = float(improved.cost())
        if _trace.enabled():
            stage_span.annotate(full_ilp=full_applicable, cost=current_cost)
    stage_seconds["ilp"] = time.monotonic() - t0

    if _trace.enabled():
        tspan.annotate(
            init_cost=init_cost,
            local_search_cost=local_search_cost,
            final_cost=current_cost,
            best_initializer=best_init_name,
        )
    return PipelineResult(
        schedule=current,
        init_cost=init_cost,
        local_search_cost=local_search_cost,
        final_cost=current_cost,
        best_initializer=best_init_name,
        ilp_assignment_cost=ilp_assignment_cost,
        initializer_costs=initializer_costs,
        stage_seconds=stage_seconds,
    )


class FrameworkScheduler(Scheduler):
    """The paper's combined scheduler as a plain :class:`Scheduler`."""

    name = "Framework"

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()

    @property
    def deterministic(self) -> bool:
        return not self.config.wall_clock_limited()

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        return run_pipeline(dag, machine, self.config).schedule
