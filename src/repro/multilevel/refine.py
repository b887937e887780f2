"""Uncoarsening and refinement (paper Section 4.5 / Appendix A.5).

After the coarsest DAG has been scheduled, the contraction steps are undone
in reverse order.  Every ``refine_interval`` uncontractions the current
schedule is *projected* onto the (slightly finer) DAG — every finer cluster
inherits the processor and superstep of the coarse cluster that contained it
— and a bounded number of hill-climbing moves is run to adapt the schedule
to the newly revealed structure.
"""

from __future__ import annotations

import numpy as np

from ..localsearch.hill_climbing import hill_climb
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule, legalize_superstep_assignment
from ..obs import trace as _trace
from .coarsen import CoarseningSequence

__all__ = ["project_schedule", "uncoarsen_and_refine"]


def project_schedule(
    sequence: CoarseningSequence,
    machine: BspMachine,
    coarse_schedule: BspSchedule,
    coarse_steps: int,
    finer_steps: int,
) -> BspSchedule:
    """Project a schedule of the coarse DAG (after ``coarse_steps``
    contractions) onto the finer DAG obtained after ``finer_steps``
    contractions (``finer_steps <= coarse_steps``).

    Every finer cluster is assigned the processor and superstep of the
    coarse cluster containing it; since the coarse schedule was valid, the
    projection is valid as well (edges inside a coarse cluster end up in the
    same processor and superstep).  A legalization pass guards against any
    remaining ordering issue.
    """
    if finer_steps > coarse_steps:
        raise ValueError("finer_steps must not exceed coarse_steps")
    fine_dag, fine_mapping = sequence.coarse_dag_after(finer_steps)
    # Mapping from original nodes to coarse nodes of the *coarse* level: the
    # node numbering coarse_dag_after(coarse_steps) gives, without building
    # that DAG again.
    _, coarse_mapping = np.unique(sequence.partition_after(coarse_steps), return_inverse=True)

    # Every original member of a fine cluster lies in the same coarse
    # cluster (the coarse partition merges fine clusters), so scattering
    # through all members writes one value per fine cluster.
    proc = np.zeros(fine_dag.n, dtype=np.int64)
    step = np.zeros(fine_dag.n, dtype=np.int64)
    proc[fine_mapping] = coarse_schedule.proc[coarse_mapping]
    step[fine_mapping] = coarse_schedule.step[coarse_mapping]
    step = legalize_superstep_assignment(fine_dag, proc, step)
    return BspSchedule(fine_dag, machine, proc, step)


def uncoarsen_and_refine(
    sequence: CoarseningSequence,
    machine: BspMachine,
    coarse_schedule: BspSchedule,
    *,
    refine_interval: int = 5,
    hc_moves_per_refinement: int = 100,
) -> BspSchedule:
    """Run the full uncoarsening + refinement phase.

    Starts from a schedule of the coarsest DAG (after all recorded
    contractions) and returns a schedule of the *original* DAG.  Every
    ``refine_interval`` uncontractions, first-improvement hill climbing
    runs for at most ``hc_moves_per_refinement`` moves (the defaults are
    those of :class:`~repro.pipeline.config.MultilevelConfig`).
    """
    total = sequence.num_contractions
    current_steps = total
    current_schedule = coarse_schedule

    while current_steps > 0:
        next_steps = max(0, current_steps - max(refine_interval, 1))
        with _trace.span(
            "refine_level", contractions=current_steps, next=next_steps
        ) as level_span:
            projected = project_schedule(
                sequence, machine, current_schedule, current_steps, next_steps
            )
            result = hill_climb(projected, max_moves=hc_moves_per_refinement)
            if _trace.enabled():
                level_span.annotate(
                    nodes=projected.dag.n, cost=result.final_cost
                )
        current_schedule = result.schedule
        current_steps = next_steps

    # The uncoarsening loop ends at the original DAG (0 contractions), whose
    # node indexing is the identity; re-attach the original DAG object so the
    # caller gets a schedule of exactly the DAG it passed in.
    assert current_schedule.dag.n == sequence.dag.n
    return BspSchedule(
        sequence.dag, machine, current_schedule.proc.copy(), current_schedule.step.copy()
    )
