"""Simulated annealing on top of the hill-climbing move set.

The paper notes (Section 8) that its HC method is a deliberately simple
prototype and names "more complex local search techniques that also attempt
to escape local minima" as a natural extension.  This module provides that
extension: the same single-node move neighbourhood as HC, explored with the
Metropolis acceptance rule and a geometric cooling schedule, always tracking
the best schedule seen.

The result is never worse than the starting schedule (the best-seen schedule
is returned), and every intermediate state is a valid BSP schedule because
only validity-preserving moves are ever applied.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from .state import LocalSearchState

__all__ = ["SimulatedAnnealingResult", "simulated_annealing"]


@dataclass
class SimulatedAnnealingResult:
    """Outcome of a simulated annealing run."""

    schedule: BspSchedule
    initial_cost: float
    final_cost: float
    moves_evaluated: int
    moves_accepted: int

    @property
    def improvement(self) -> float:
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


def simulated_annealing(
    schedule: BspSchedule,
    *,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.995,
    steps: int = 2000,
    time_limit: Optional[float] = None,
    seed: Optional[int] = 0,
) -> SimulatedAnnealingResult:
    """Anneal a schedule using the HC move neighbourhood.

    Parameters
    ----------
    initial_temperature:
        Starting temperature; defaults to 2% of the initial cost, so that
        early on, moves that worsen the schedule by a few percent are still
        accepted with reasonable probability.
    cooling:
        Geometric cooling factor applied after every step.
    steps:
        Number of proposed moves.
    """
    if not (0.0 < cooling <= 1.0):
        raise ValueError("cooling must be in (0, 1]")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    with _trace.span(
        "simulated_annealing", nodes=schedule.dag.n, steps=steps, cooling=cooling
    ) as tspan:
        return _simulated_annealing(
            schedule,
            initial_temperature=initial_temperature,
            cooling=cooling,
            steps=steps,
            time_limit=time_limit,
            seed=seed,
            tspan=tspan,
        )


def _simulated_annealing(
    schedule: BspSchedule,
    *,
    initial_temperature: Optional[float],
    cooling: float,
    steps: int,
    time_limit: Optional[float],
    seed: Optional[int],
    tspan: "_trace.SpanLike",
) -> SimulatedAnnealingResult:
    state = LocalSearchState(schedule)
    rng = np.random.default_rng(seed)
    initial_cost = float(state.total_cost)
    best_proc = state.proc.copy()
    best_step = state.step.copy()
    best_cost = initial_cost

    temperature = initial_temperature if initial_temperature is not None else max(initial_cost * 0.02, 1.0)
    start = time.monotonic()
    evaluated = 0
    accepted = 0
    n = state.dag.n

    for step_index in range(steps if n > 0 else 0):
        if time_limit is not None and time.monotonic() - start > time_limit:
            break
        v = int(rng.integers(n))
        moves = state.candidate_moves(v)
        if not moves:
            continue
        _, p, s = moves[int(rng.integers(len(moves)))]
        delta = state.move_delta(v, p, s)
        evaluated += 1
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            new_cost = state.apply_move(v, p, s)
            accepted += 1
            if new_cost < best_cost - 1e-12:
                best_cost = float(new_cost)
                best_proc = state.proc.copy()
                best_step = state.step.copy()
                if _trace.enabled():
                    # Convergence telemetry: sample the best-seen curve at
                    # each improvement.  Never touches the RNG stream.
                    tspan.event(
                        "improvement",
                        step=step_index,
                        cost=best_cost,
                        evaluated=evaluated,
                        accepted=accepted,
                    )
        temperature *= cooling

    best = BspSchedule(schedule.dag, schedule.machine, best_proc, best_step).normalized()
    result = SimulatedAnnealingResult(
        schedule=best,
        initial_cost=initial_cost,
        final_cost=float(best.cost()),
        moves_evaluated=evaluated,
        moves_accepted=accepted,
    )
    if _trace.enabled():
        tspan.annotate(
            initial_cost=result.initial_cost,
            final_cost=result.final_cost,
            evaluated=evaluated,
            accepted=accepted,
            engine_transactions=state.engine.transactions,
        )
    return result

