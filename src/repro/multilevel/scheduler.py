"""The multilevel scheduler (paper Section 4.5, Figure 4).

Pipeline: coarsen the DAG, schedule the coarse DAG with the base framework
(Figure 3, without its final communication-schedule ILP), then uncoarsen
step by step while refining with bounded hill climbing, and finally optimize
the communication schedule of the resulting original-DAG schedule with HCcs
and ILPcs.  The whole procedure is run for each configured coarsening ratio
(30% and 15% in the paper) and the cheapest result is returned.

Memory-constrained variant: with per-processor memory bounds (either on the
machine or via ``MultilevelConfig.memory_bound``), the coarse solve runs on
the unconstrained machine, its schedule is repaired into the feasible region
(coarse memory weights are the summed fine weights, so a feasible coarse
assignment projects to a feasible fine assignment), and every refinement
hill climb then respects the bounds through the local-search move filter.
The feasibility fallback candidate is the memory-aware greedy schedule
instead of the (generally infeasible) trivial sequential one.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..graphs.dag import ComputationalDAG
from ..ilp.commsched import solve_comm_schedule_ilp
from ..localsearch.comm_hill_climbing import comm_hill_climb
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from ..pipeline.config import MultilevelConfig
from ..pipeline.framework import run_pipeline
from ..scheduler import Scheduler, SchedulingError
from .coarsen import coarsen_dag
from .refine import uncoarsen_and_refine

__all__ = ["MultilevelScheduler", "multilevel_schedule"]


def multilevel_schedule(
    dag: ComputationalDAG,
    machine: BspMachine,
    config: Optional[MultilevelConfig] = None,
) -> Tuple[BspSchedule, Dict[float, float]]:
    """Run the multilevel scheduler; returns (best schedule, cost per ratio).

    The per-ratio cost dictionary backs the paper's Table 13/14 comparison of
    the C15 / C30 / C_opt variants.
    """
    if config is None:
        config = MultilevelConfig()
    with _trace.span("multilevel", nodes=dag.n, P=machine.P) as tspan:
        return _multilevel_schedule(dag, machine, config, tspan)


def _multilevel_schedule(
    dag: ComputationalDAG,
    machine: BspMachine,
    config: MultilevelConfig,
    tspan: "_trace.SpanLike",
) -> Tuple[BspSchedule, Dict[float, float]]:
    if config.memory_bound is not None:
        machine = machine.with_memory_bound(config.memory_bound)
    bounded = machine.has_memory_bounds
    base_config = config.base_pipeline.without_ilp_cs()

    # The fully coarsened limit of the method is a single cluster, whose
    # schedule is exactly the trivial sequential one; include it as a
    # zero-cost candidate so the multilevel scheduler never returns a
    # solution worse than the trivial baseline (the property the paper
    # highlights for communication-dominated instances, Section 7.3).
    # Under memory bounds the trivial schedule is generally infeasible, so
    # the memory-aware greedy takes over as the feasibility fallback — but
    # only as a *candidate*: its first-fit placement can fail on tight
    # instances the repair-based per-ratio path still schedules.
    best_schedule: Optional[BspSchedule] = None
    if bounded:
        from ..baselines.memory import MemoryAwareGreedyScheduler, repair_memory

        try:
            best_schedule = MemoryAwareGreedyScheduler().schedule(dag, machine)
        except SchedulingError:
            pass
    else:
        best_schedule = BspSchedule.trivial(dag, machine)
    best_cost = float(best_schedule.cost()) if best_schedule is not None else float("inf")
    per_ratio_cost: Dict[float, float] = {}

    # An empty DAG has nothing to coarsen: the fallback candidate is the result.
    ratios = config.coarsening_ratios if dag.n > 0 else ()
    for ratio in ratios:
        with _trace.span("ml_ratio", ratio=float(ratio)) as ratio_span:
            target = max(config.min_coarse_nodes, int(round(dag.n * float(ratio))))
            target = min(target, dag.n)
            with _trace.span("coarsen"):
                sequence = coarsen_dag(
                    dag, target, light_fraction=config.light_edge_fraction
                )
                coarse_dag, _ = sequence.coarse_dag_after(sequence.num_contractions)

            # The base pipeline is not memory-aware: solve the coarse DAG
            # unconstrained, then repair the result into the feasible region
            # before the bound-respecting refinement takes over.
            solve_machine = machine.without_memory_bound() if bounded else machine
            with _trace.span("coarse_solve", coarse_nodes=coarse_dag.n):
                coarse_result = run_pipeline(coarse_dag, solve_machine, base_config)
            coarse_schedule = coarse_result.schedule.without_comm()
            if bounded:
                coarse_schedule = BspSchedule(
                    coarse_dag, machine, coarse_schedule.proc, coarse_schedule.step
                )
                try:
                    coarse_schedule = repair_memory(coarse_schedule)
                except SchedulingError:
                    # Cluster granularity too coarse for the bound at this
                    # ratio; the fallback candidate keeps the result feasible.
                    if _trace.enabled():
                        ratio_span.annotate(repair_failed=True)
                    continue
            with _trace.span("refine"):
                refined = uncoarsen_and_refine(
                    sequence,
                    machine,
                    coarse_schedule,
                    refine_interval=config.refine_interval,
                    hc_moves_per_refinement=config.hc_moves_per_refinement,
                )

            # Communication scheduling is run on the original DAG only — the
            # coarse DAG overestimates communication volumes (summed weights).
            with _trace.span("comm_opt"):
                refined = comm_hill_climb(
                    refined, time_limit=config.base_pipeline.hccs_time_limit
                ).schedule
                if config.base_pipeline.use_ilp_cs:
                    improved = solve_comm_schedule_ilp(
                        refined, time_limit=config.base_pipeline.ilp_cs_time_limit
                    )
                    if improved is not None and improved.cost() <= refined.cost():
                        refined = improved

            cost = float(refined.cost())
            per_ratio_cost[float(ratio)] = cost
            if _trace.enabled():
                ratio_span.annotate(cost=cost)
            if cost < best_cost:
                best_cost = cost
                best_schedule = refined

    if best_schedule is None:
        raise SchedulingError(
            "multilevel scheduler found no memory-feasible schedule: the "
            "greedy fallback and every coarsening ratio failed under the "
            "per-processor memory bounds"
        )
    if _trace.enabled():
        tspan.annotate(final_cost=best_cost)
    return best_schedule, per_ratio_cost


class MultilevelScheduler(Scheduler):
    """The multilevel coarsen–solve–refine scheduler as a :class:`Scheduler`."""

    name = "ML"

    def __init__(self, config: Optional[MultilevelConfig] = None) -> None:
        self.config = config or MultilevelConfig()

    @property
    def deterministic(self) -> bool:
        return not self.config.base_pipeline.wall_clock_limited()

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        schedule, _ = multilevel_schedule(dag, machine, self.config)
        return schedule
