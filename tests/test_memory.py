"""Tests for the memory-constrained scheduling subsystem.

Covers the model extension (per-node memory weights, per-processor bounds),
schedule validation, the memory-aware greedy baseline and repair pass, the
local-search move filter, the multilevel path, and the acceptance criterion
that a memory-bounded solve is reachable from all four entry points
(registry spec string, ProblemSpec JSON, ``repro.api.solve``, CLI) with
``solve_many(jobs=2)`` byte-identical to serial execution.
"""

import io
import json

import numpy as np
import pytest

from repro import api
from repro.baselines.list_schedulers import BlEstScheduler
from repro.baselines.memory import MemoryAwareGreedyScheduler, repair_memory
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import spmv_dag
from repro.heuristics.bspg import BspGreedyScheduler
from repro.localsearch.state import LocalSearchState
from repro.model.machine import BspMachine, MachineValidationError
from repro.model.schedule import BspSchedule, ScheduleValidationError
from repro.registry import make_scheduler, scheduler_info
from repro.scheduler import SchedulingError
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest, SpecError


def tight_instance(P: int = 2, seed: int = 3):
    """A DAG plus a bound so tight that single-processor schedules violate it."""
    dag = spmv_dag(7, q=0.3, seed=seed)
    bound = float(np.ceil(dag.total_memory() / P) * 1.3)
    machine = BspMachine(P=P, g=2, l=3, memory_bound=bound)
    return dag, machine, bound


class TestMachineMemoryBound:
    def test_scalar_broadcasts(self):
        machine = BspMachine(P=3, memory_bound=10)
        assert machine.has_memory_bounds
        assert machine.memory_bounds.tolist() == [10.0, 10.0, 10.0]

    def test_per_processor_bounds(self):
        machine = BspMachine(P=2, memory_bound=[4, 8])
        assert machine.memory_bounds.tolist() == [4.0, 8.0]

    def test_wrong_length_rejected(self):
        with pytest.raises(MachineValidationError):
            BspMachine(P=2, memory_bound=[4, 8, 16])

    def test_negative_bound_rejected(self):
        with pytest.raises(MachineValidationError):
            BspMachine(P=2, memory_bound=-1)

    def test_zero_and_non_finite_bounds_rejected(self):
        # Strictly positive + finite, so 0 in flat exports means "unbounded".
        for bad in (0, float("nan"), float("inf")):
            with pytest.raises(MachineValidationError):
                BspMachine(P=2, memory_bound=bad)

    def test_with_and_without_memory_bound(self):
        machine = BspMachine(P=2, g=2, l=3)
        bounded = machine.with_memory_bound(6)
        assert bounded.has_memory_bounds and not machine.has_memory_bounds
        assert not bounded.without_memory_bound().has_memory_bounds
        assert bounded.g == machine.g and bounded.l == machine.l

    def test_describe_mentions_bound(self):
        assert "mem<=6" in BspMachine(P=2, memory_bound=6).describe()


class TestScheduleValidation:
    def test_validate_rejects_memory_overflow(self):
        dag = ComputationalDAG(4, [(0, 1), (1, 2), (2, 3)], memory=[3, 3, 3, 3])
        machine = BspMachine(P=2, g=1, l=1, memory_bound=6)
        overloaded = BspSchedule.trivial(dag, machine)
        errors = overloaded.validation_errors()
        assert any("memory bound" in error for error in errors)
        with pytest.raises(ScheduleValidationError, match="memory bound"):
            overloaded.validate()

    def test_balanced_schedule_passes(self):
        dag = ComputationalDAG(4, [], memory=[3, 3, 3, 3])
        machine = BspMachine(P=2, g=1, l=1, memory_bound=6)
        schedule = BspSchedule(dag, machine, np.array([0, 0, 1, 1]), np.zeros(4, dtype=int))
        assert schedule.is_valid()
        assert schedule.memory_usage().tolist() == [6.0, 6.0]

    def test_schedule_checked_enforces_bound(self):
        dag, machine, _ = tight_instance()
        from repro.baselines.trivial import TrivialScheduler

        with pytest.raises(SchedulingError, match="memory bound"):
            TrivialScheduler().schedule_checked(dag, machine)


class TestMemoryAwareGreedy:
    def test_feasible_where_unconstrained_variant_violates(self):
        # A chain offers no parallelism, so the unconstrained greedy
        # heuristics keep it on a single processor — which a per-processor
        # memory bound of half the total forbids.
        n = 10
        dag = ComputationalDAG(n, [(i, i + 1) for i in range(n - 1)], name="chain")
        machine = BspMachine(P=2, g=1, l=1, memory_bound=n // 2 + 1)
        for unaware in (BspGreedyScheduler(), BlEstScheduler()):
            unconstrained = unaware.schedule(dag, machine.without_memory_bound())
            usage = np.bincount(
                unconstrained.proc,
                weights=np.asarray(dag.memory, float),
                minlength=machine.P,
            )
            assert np.any(usage > machine.memory_bounds), unaware.name
        schedule = MemoryAwareGreedyScheduler().schedule_checked(dag, machine)
        assert np.all(schedule.memory_usage() <= machine.memory_bounds + 1e-9)

    def test_balance_policy_also_feasible(self):
        dag, machine, _ = tight_instance(seed=5)
        schedule = MemoryAwareGreedyScheduler(policy="balance").schedule_checked(dag, machine)
        assert schedule.is_valid()

    def test_explicit_bound_overrides_machine(self):
        dag, _, bound = tight_instance()
        machine = BspMachine(P=2, g=2, l=3)  # unbounded machine
        schedule = MemoryAwareGreedyScheduler(memory_bound=bound).schedule_checked(dag, machine)
        assert schedule.machine.has_memory_bounds

    def test_without_bound_behaves_like_list_scheduler(self):
        dag = spmv_dag(6, q=0.3, seed=1)
        machine = BspMachine(P=2, g=2, l=3)
        mem = MemoryAwareGreedyScheduler().schedule_checked(dag, machine)
        ref = BlEstScheduler().schedule_checked(dag, machine)
        assert mem.cost() == pytest.approx(ref.cost())

    def test_infeasible_instance_fails_loudly(self):
        dag = ComputationalDAG(2, [(0, 1)], memory=[5, 5])
        machine = BspMachine(P=2, g=1, l=1, memory_bound=4)
        with pytest.raises(SchedulingError, match="memory"):
            MemoryAwareGreedyScheduler().schedule(dag, machine)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            MemoryAwareGreedyScheduler(policy="nope")


class TestRepairMemory:
    def test_repair_produces_valid_schedule(self):
        dag, machine, _ = tight_instance()
        violating = BspSchedule.trivial(dag, machine)
        assert not violating.is_valid()
        repaired = repair_memory(violating)
        assert repaired.is_valid()

    def test_repair_is_noop_without_bounds(self):
        dag = spmv_dag(5, q=0.3, seed=1)
        schedule = BspSchedule.trivial(dag, BspMachine(P=2, g=1, l=1))
        assert repair_memory(schedule) is schedule

    def test_unrepairable_overflow_raises(self):
        dag = ComputationalDAG(2, [], memory=[5, 5])
        machine = BspMachine(P=1, g=1, l=1, memory_bound=4)
        with pytest.raises(SchedulingError):
            repair_memory(BspSchedule.trivial(dag, machine))

    def test_repair_swaps_when_no_single_relocation_fits(self):
        # bounds [10, 10], proc0 = {6, 6} (overflows), proc1 = {4, 4}: no
        # single node of proc0 fits into proc1's slack of 2, but swapping a
        # 6 with a 4 yields the feasible {6, 4} / {6, 4} split.
        dag = ComputationalDAG(4, [], memory=[6, 6, 4, 4])
        machine = BspMachine(P=2, g=1, l=1, memory_bound=10)
        stuck = BspSchedule(
            dag, machine, np.array([0, 0, 1, 1]), np.zeros(4, dtype=int)
        )
        repaired = repair_memory(stuck)
        assert repaired.is_valid()
        assert sorted(repaired.memory_usage().tolist()) == [10.0, 10.0]

    def test_improver_falls_back_to_greedy_when_repair_gives_up(self):
        # Chain through the two heavy nodes so bspg piles them together and
        # a local repair may fail; the improver must still return a feasible
        # schedule via the greedy fallback rather than raising.
        dag = ComputationalDAG(4, [(0, 1)], memory=[6, 6, 4, 4])
        machine = BspMachine(P=2, g=1, l=1, memory_bound=10)
        schedule = make_scheduler("hc(max_moves=50)").schedule_checked(dag, machine)
        assert np.all(schedule.memory_usage() <= machine.memory_bounds + 1e-9)


class TestLocalSearchMemoryFilter:
    def test_candidate_moves_masked_by_bound(self):
        # Two independent nodes, each of memory 3, bound 3: neither node may
        # ever join the other's processor.
        dag = ComputationalDAG(2, [], memory=[3, 3])
        machine = BspMachine(P=2, g=1, l=1, memory_bound=3)
        schedule = BspSchedule(dag, machine, np.array([0, 1]), np.array([0, 0]))
        state = LocalSearchState(schedule)
        for v in range(2):
            for (_, p, _) in state.candidate_moves(v):
                assert p == int(schedule.proc[v])
        assert not state.is_move_valid(0, 1, 0)
        assert not state.is_move_valid(1, 0, 0)

    def test_unbounded_machine_not_filtered(self):
        dag = ComputationalDAG(2, [], memory=[3, 3])
        machine = BspMachine(P=2, g=1, l=1)
        state = LocalSearchState(BspSchedule(dag, machine, np.array([0, 1]), np.array([0, 0])))
        assert state.is_move_valid(0, 1, 0)

    def test_applied_moves_maintain_memory_accounting(self):
        dag, machine, _ = tight_instance()
        initial = MemoryAwareGreedyScheduler().schedule(dag, machine)
        state = LocalSearchState(initial)
        applied = 0
        for v in range(dag.n):
            for move in state.candidate_moves(v):
                state.apply_move(*move)
                applied += 1
                break
            if applied >= 5:
                break
        usage = state.current_schedule().memory_usage()
        assert np.allclose(usage, state.mem_used)
        assert np.all(usage <= machine.memory_bounds + 1e-9)

    def test_hc_stays_feasible_from_infeasible_init(self):
        dag, machine, _ = tight_instance()
        schedule = make_scheduler("hc(max_moves=100)").schedule_checked(dag, machine)
        assert np.all(schedule.memory_usage() <= machine.memory_bounds + 1e-9)

    def test_sa_stays_feasible(self):
        dag, machine, _ = tight_instance(seed=7)
        schedule = make_scheduler(
            "sa(steps=150, seed=1, init=greedy-mem)"
        ).schedule_checked(dag, machine)
        assert np.all(schedule.memory_usage() <= machine.memory_bounds + 1e-9)


class TestMultilevelMemory:
    def test_multilevel_config_spec_string(self):
        scheduler = make_scheduler("multilevel(memory_bound=12)")
        assert scheduler.config.memory_bound == 12

    def test_multilevel_respects_bound(self):
        dag, machine, _ = tight_instance(seed=11)
        schedule = make_scheduler("multilevel").schedule_checked(dag, machine)
        assert np.all(schedule.memory_usage() <= machine.memory_bounds + 1e-9)

    def test_multilevel_bound_via_config_on_unbounded_machine(self):
        dag, _, bound = tight_instance(seed=11)
        machine = BspMachine(P=2, g=2, l=3)
        schedule = make_scheduler(f"multilevel(memory_bound={bound})").schedule_checked(
            dag, machine
        )
        assert schedule.machine.has_memory_bounds
        assert np.all(schedule.memory_usage() <= schedule.machine.memory_bounds + 1e-9)


class TestSpecAndApiEntryPoints:
    def make_problem(self):
        dag, machine, bound = tight_instance()
        return ProblemSpec.from_instance(dag, machine), bound

    def test_machine_spec_round_trip(self):
        spec, bound = self.make_problem()
        assert spec.machine.memory_bound == bound
        rebuilt = ProblemSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.build_machine().memory_bounds.tolist() == [bound, bound]

    def test_per_processor_bound_round_trip(self):
        spec = MachineSpec(P=2, memory_bound=(8.0, 16.0))
        rebuilt = MachineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.build().memory_bounds.tolist() == [8.0, 16.0]

    def test_mismatched_bound_length_rejected(self):
        with pytest.raises(SpecError):
            MachineSpec(P=2, memory_bound=(1.0, 2.0, 3.0))

    def test_spec_rejects_non_finite_and_non_positive_bounds(self):
        for bad in (0, -3, float("nan"), float("inf")):
            with pytest.raises(SpecError):
                MachineSpec(P=2, memory_bound=bad)
        with pytest.raises(SpecError):
            MachineSpec(P=2, memory_bound=(4.0, float("nan")))

    def test_dag_spec_keeps_memory_weights(self):
        dag = ComputationalDAG(3, [(0, 1)], work=[1, 1, 1], memory=[4, 5, 6])
        spec = DagSpec.from_dag(dag)
        assert spec.memory == (4, 5, 6)
        assert list(spec.build().memory) == [4, 5, 6]
        # Default memory weights stay implicit to keep inline specs compact.
        assert DagSpec.from_dag(ComputationalDAG(2, [(0, 1)])).memory is None

    def test_api_solve_memory_bounded(self):
        spec, _ = self.make_problem()
        result = api.solve(SolveRequest(spec=spec, scheduler="greedy-mem"))
        assert result.valid
        assert result.machine.memory_bound is not None

    def test_api_solve_rejects_unaware_scheduler_on_tight_instance(self):
        spec, _ = self.make_problem()
        with pytest.raises(SchedulingError, match="memory bound"):
            api.solve(SolveRequest(spec=spec, scheduler="trivial"))

    def test_solve_many_jobs2_byte_identical_for_new_schedulers(self):
        spec, bound = self.make_problem()
        requests = [
            SolveRequest(spec=spec, scheduler=s)
            for s in (
                "greedy-mem",
                "greedy-mem(policy=balance)",
                f"hc(init=greedy-mem, max_moves=100, memory_bound={bound})",
            )
        ]
        serial = io.StringIO()
        api.write_results([api.solve(r) for r in requests], serial)
        parallel = io.StringIO()
        api.write_results(api.solve_many(requests, jobs=2), parallel)
        assert serial.getvalue() == parallel.getvalue()

    def test_registry_metadata(self):
        info = scheduler_info("greedy-mem")
        assert make_scheduler("greedy-mem").deterministic
        assert "memory" in info.description.lower()
        assert scheduler_info("hc").accepts("memory_bound")
        assert scheduler_info("multilevel").accepts("memory_bound")


class TestCliEntryPoint:
    def test_schedule_with_memory_bound_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "schedule",
                "--kind",
                "spmv",
                "--size",
                "6",
                "-P",
                "2",
                "-g",
                "2",
                "-l",
                "3",
                "--memory-bound",
                "1000",
                "--schedulers",
                "greedy-mem,hc(init=greedy-mem, max_moves=50)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy-mem" in out

    def test_tight_bound_via_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        dag, machine, _ = tight_instance()
        request = SolveRequest(
            spec=ProblemSpec.from_instance(dag, machine), scheduler="greedy-mem"
        )
        path = tmp_path / "request.json"
        path.write_text(request.to_json())
        assert main(["schedule", "--spec", str(path)]) == 0
        assert "schedule" in capsys.readouterr().out
