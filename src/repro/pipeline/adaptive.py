"""Adaptive scheduler: choose between the base framework and the multilevel
scheduler based on the communication-to-computation ratio.

The paper observes (Sections 7.2/7.3, Appendix A.5 and C.6) that the
multilevel scheduler is the right tool only when the problem is dominated by
communication costs, and names the automatic selection of the approach as a
promising extension.  This module implements that extension in its simplest
form: compute the machine-weighted CCR of the instance and dispatch to the
multilevel scheduler above a threshold, to the base framework below it —
optionally running both near the threshold and keeping the cheaper result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..graphs.analysis import communication_to_computation_ratio
from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..multilevel.scheduler import multilevel_schedule
from ..scheduler import Scheduler
from .config import MultilevelConfig, PipelineConfig
from .framework import run_pipeline

__all__ = ["AdaptiveScheduler", "AdaptiveDecision"]


@dataclass(frozen=True)
class AdaptiveDecision:
    """Record of which strategy the adaptive scheduler picked and why."""

    ccr: float
    used_multilevel: bool
    used_base: bool
    base_cost: Optional[float]
    multilevel_cost: Optional[float]


@dataclass
class AdaptiveScheduler(Scheduler):
    """Dispatch between the base framework and the multilevel scheduler.

    Parameters
    ----------
    ccr_threshold:
        Machine-weighted CCR above which the instance is considered
        communication-dominated.
    margin:
        Relative band around the threshold in which *both* schedulers are run
        and the cheaper schedule is kept (set to 0 to always run only one).
    """

    pipeline_config: PipelineConfig = field(default_factory=PipelineConfig.fast)
    multilevel_config: Optional[MultilevelConfig] = None
    ccr_threshold: float = 8.0
    margin: float = 0.5
    name: str = "Adaptive"

    def __post_init__(self) -> None:
        if self.ccr_threshold <= 0:
            raise ValueError("ccr_threshold must be positive")
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.multilevel_config is None:
            self.multilevel_config = MultilevelConfig(base_pipeline=self.pipeline_config)
        self.last_decision: Optional[AdaptiveDecision] = None

    @property
    def deterministic(self) -> bool:
        configs = (self.pipeline_config, self.multilevel_config.base_pipeline)
        return not any(config.wall_clock_limited() for config in configs)

    # ------------------------------------------------------------------
    def _strategies(self, ccr: float) -> Tuple[bool, bool]:
        """(use_base, use_multilevel) for a given CCR."""
        lo = self.ccr_threshold * (1.0 - self.margin)
        hi = self.ccr_threshold * (1.0 + self.margin)
        if ccr < lo:
            return True, False
        if ccr > hi:
            return False, True
        return True, True

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        ccr = communication_to_computation_ratio(dag, machine)
        use_base, use_multilevel = self._strategies(ccr)
        if dag.n <= self.multilevel_config.min_coarse_nodes:
            # Too small to coarsen meaningfully; the base framework handles it.
            use_base, use_multilevel = True, False

        base_schedule = base_cost = None
        ml_schedule = ml_cost = None
        if use_base:
            base_schedule = run_pipeline(dag, machine, self.pipeline_config).schedule
            base_cost = float(base_schedule.cost())
        if use_multilevel:
            ml_schedule, _ = multilevel_schedule(dag, machine, self.multilevel_config)
            ml_cost = float(ml_schedule.cost())

        self.last_decision = AdaptiveDecision(
            ccr=ccr,
            used_multilevel=use_multilevel,
            used_base=use_base,
            base_cost=base_cost,
            multilevel_cost=ml_cost,
        )
        candidates = [
            (cost, sched)
            for cost, sched in ((base_cost, base_schedule), (ml_cost, ml_schedule))
            if sched is not None
        ]
        return min(candidates, key=lambda pair: pair[0])[1]
