"""Common scheduler interface.

Every scheduling algorithm in this package — baselines, initialization
heuristics, the combined pipeline and the multilevel scheduler — implements
the small :class:`Scheduler` interface: given a DAG and a machine it returns
a valid :class:`~repro.model.schedule.BspSchedule`.  Keeping the interface
identical across algorithms is what makes the experiment runner and the
benchmark harness uniform.
"""

from __future__ import annotations

import abc

from .graphs.dag import ComputationalDAG
from .model.machine import BspMachine
from .model.schedule import BspSchedule

__all__ = ["Scheduler", "SchedulingError"]


class SchedulingError(RuntimeError):
    """Raised when a scheduler cannot produce a valid schedule."""


class Scheduler(abc.ABC):
    """Abstract base class of all schedulers."""

    #: Short identifier used in experiment tables (e.g. ``"Cilk"``).
    name: str = "scheduler"

    @property
    def deterministic(self) -> bool:
        """Whether repeated runs give the same schedule: false only when a
        wall-clock limit can cut a run short (seeded randomness is fine)."""
        return True

    @abc.abstractmethod
    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        """Compute a valid BSP schedule of ``dag`` on ``machine``."""

    def schedule_checked(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        """Like :meth:`schedule` but raises if the result is invalid.

        Used by tests and the experiment runner as a safety net: a scheduler
        bug must fail loudly rather than silently produce a bogus cost.
        """
        sched = self.schedule(dag, machine)
        errors = sched.validation_errors()
        if errors:
            raise SchedulingError(
                f"{self.name} produced an invalid schedule: {errors[0]} "
                f"({len(errors)} violations)"
            )
        return sched

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
