"""Local-search improvers packaged as standalone :class:`Scheduler`\\ s.

The paper uses HC / HCcs (and this reproduction additionally simulated
annealing) as *improvement* stages inside the combined pipeline.  For
experimentation it is just as useful to run an improver on its own: start
from a cheap initialization heuristic and climb from there.  These wrappers
make each improver a first-class scheduler, selectable from the registry via
spec strings such as ``"hc(max_moves=200, init=source)"`` or
``"sa(steps=500, seed=7)"``.

The ``init`` parameter is itself a scheduler spec string (resolved through
:mod:`repro.registry`), so improvers can be stacked onto any registered
scheduler — including each other.

All improvers are memory-aware: with a ``memory_bound`` parameter (or a
bound already on the machine) the initial schedule is repaired into the
memory-feasible region if needed (see :func:`repro.baselines.memory.repair_memory`)
and the local search's move filter keeps it there, so e.g.
``hc(memory_bound=32, init=greedy-mem)`` always returns a feasible schedule.
"""

from __future__ import annotations

from typing import Optional, Union

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..scheduler import Scheduler
from .annealing import simulated_annealing
from .comm_hill_climbing import comm_hill_climb
from .hill_climbing import hill_climb

__all__ = [
    "HillClimbingScheduler",
    "SimulatedAnnealingScheduler",
    "CommHillClimbingScheduler",
]


class _ImproverScheduler(Scheduler):
    """Base class: produce a (memory-feasible) initial schedule, then improve it."""

    def __init__(
        self,
        init: Union[str, Scheduler] = "bspg",
        memory_bound: Optional[object] = None,
        time_limit: Optional[float] = None,
    ) -> None:
        self.init = init
        self.memory_bound = memory_bound
        self.time_limit = time_limit

    @property
    def deterministic(self) -> bool:
        return self.time_limit is None and self._init_scheduler().deterministic

    def _init_scheduler(self) -> Scheduler:
        if isinstance(self.init, Scheduler):
            return self.init
        # Imported on use: the registry's factories import this module.
        from ..registry import make_scheduler

        return make_scheduler(str(self.init))

    def _machine(self, machine: BspMachine) -> BspMachine:
        """The machine the improver actually works on (bound merged in)."""
        if self.memory_bound is not None:
            return machine.with_memory_bound(self.memory_bound)
        return machine

    def _initial_schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        initial = self._init_scheduler().schedule(dag, machine)
        if machine.has_memory_bounds:
            # Non-memory-aware initializers may start outside the feasible
            # region; repair so the bound-respecting move filter applies.
            # Repair is a heuristic — when it gives up, restart from the
            # memory-aware greedy instead of failing a feasible instance.
            from ..baselines.memory import MemoryAwareGreedyScheduler, repair_memory
            from ..scheduler import SchedulingError

            try:
                initial = repair_memory(initial)
            except SchedulingError:
                initial = MemoryAwareGreedyScheduler().schedule(dag, machine)
        return initial


class HillClimbingScheduler(_ImproverScheduler):
    """HC (paper Section 4.3) on top of an initialization scheduler."""

    name = "HC"

    def __init__(
        self,
        variant: str = "first",
        max_moves: Optional[int] = None,
        max_passes: Optional[int] = None,
        time_limit: Optional[float] = None,
        init: Union[str, Scheduler] = "bspg",
        memory_bound: Optional[object] = None,
    ) -> None:
        super().__init__(init, memory_bound, time_limit)
        self.variant = variant
        self.max_moves = max_moves
        self.max_passes = max_passes

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        machine = self._machine(machine)
        initial = self._initial_schedule(dag, machine)
        return hill_climb(
            initial,
            variant=self.variant,
            max_moves=self.max_moves,
            max_passes=self.max_passes,
            time_limit=self.time_limit,
        ).schedule


class SimulatedAnnealingScheduler(_ImproverScheduler):
    """Seeded simulated annealing on the HC move neighbourhood."""

    name = "SA"

    def __init__(
        self,
        steps: int = 2000,
        cooling: float = 0.995,
        initial_temperature: Optional[float] = None,
        time_limit: Optional[float] = None,
        seed: Optional[int] = 0,
        init: Union[str, Scheduler] = "bspg",
        memory_bound: Optional[object] = None,
    ) -> None:
        super().__init__(init, memory_bound, time_limit)
        self.steps = steps
        self.cooling = cooling
        self.initial_temperature = initial_temperature
        self.seed = seed

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        machine = self._machine(machine)
        initial = self._initial_schedule(dag, machine)
        result = simulated_annealing(
            initial,
            steps=self.steps,
            cooling=self.cooling,
            initial_temperature=self.initial_temperature,
            time_limit=self.time_limit,
            seed=self.seed,
        )
        return result.schedule if result.final_cost <= initial.cost() else initial


class CommHillClimbingScheduler(_ImproverScheduler):
    """HCcs: optimize the communication schedule of an initial assignment."""

    name = "HCcs"

    def __init__(
        self,
        max_moves: Optional[int] = None,
        time_limit: Optional[float] = None,
        init: Union[str, Scheduler] = "bspg",
        memory_bound: Optional[object] = None,
    ) -> None:
        super().__init__(init, memory_bound, time_limit)
        self.max_moves = max_moves

    def schedule(self, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
        machine = self._machine(machine)
        initial = self._initial_schedule(dag, machine)
        return comm_hill_climb(
            initial, max_moves=self.max_moves, time_limit=self.time_limit
        ).schedule
