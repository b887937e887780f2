"""Experiment engine: run schedulers on instances and aggregate cost ratios.

The paper evaluates every scheduler by the ratio of its schedule cost to the
cost of the ``Cilk`` baseline on the same instance, aggregated over a dataset
with the geometric mean (Section 7).  This module provides the engine behind
all tables and figures:

* the unit of work is a :class:`WorkItem` — a ``(dag, machine,
  scheduler-name)`` tuple whose scheduler is resolved through
  :mod:`repro.registry` (baselines) or runs one of the two composite
  evaluations (the pipeline stages, the multilevel sweep),
* :func:`spec_items` turns scheduler spec strings into work items on a
  prebuilt instance (:meth:`WorkItem.from_request` does the same for a
  declarative request),
* :class:`ParallelRunner` executes work items either in-process or on a
  ``multiprocessing`` pool (``jobs > 1``), with deterministic result
  ordering regardless of completion order and optional incremental
  persistence through :mod:`repro.experiments.persistence`,
* :func:`run_experiment` runs the table label set over a dataset and
  aggregates it per instance; :func:`schedule_many` runs several
  schedulers on one instance and keeps their schedules.

Every cost the engine records comes from a validated schedule: baselines go
through :meth:`Scheduler.schedule_checked` and the composite items validate
their final schedules, so an invalid schedule fails loudly instead of
producing a bogus table entry.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule, ScheduleValidationError
from ..obs import trace as _trace
from ..pipeline.config import MultilevelConfig, PipelineConfig
from ..registry import (
    TABLE_LABELS,
    canonical_scheduler_spec,
    canonical_table_label,
    make_scheduler,
    registry_name_for_label,
)
from ..scheduler import SchedulingError
from ..spec import SolveRequest
from .report import geometric_mean

__all__ = [
    "InstanceResult",
    "ExperimentResult",
    "REQUEST_BUILD_FAILURES",
    "WORK_ITEM_FAILURES",
    "WorkItem",
    "WorkItemResult",
    "ParallelRunner",
    "execute_work_item",
    "execute_work_item_tolerant",
    "resolve_cost_label",
    "run_experiment",
    "schedule_many",
    "spec_items",
]

#: Stage / algorithm labels used throughout the tables.  The baseline labels
#: are exactly the registry's table-label map, in table order.
BASELINE_LABELS = tuple(TABLE_LABELS)
STAGE_LABELS = ("Init", "HCcs", "ILP")

#: Pseudo scheduler names of the composite work items (everything else is a
#: registry name).
PIPELINE_ITEM = "pipeline"
MULTILEVEL_ITEM = "multilevel-sweep"

#: Exceptions that mean "this request could not even be *built*" (unknown
#: scheduler spec, bad generator parameters, unreadable hyperDAG file;
#: :class:`~repro.spec.SpecError` is a ``ValueError``).  Tolerant surfaces —
#: ``repro batch``, the serve daemon — map these to structured invalid-spec
#: outcomes instead of crashing the batch/worker.
REQUEST_BUILD_FAILURES = (ValueError, OSError)

#: Exceptions that mean "the scheduler ran and failed" on an executing work
#: item; :func:`execute_work_item_tolerant` converts exactly these into
#: invalid results.  Anything else is a bug and propagates.
WORK_ITEM_FAILURES = (SchedulingError, ScheduleValidationError, ValueError)


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
def resolve_cost_label(costs: Dict[str, float], label: str) -> str:
    """The key of ``costs`` that ``label`` refers to, case-insensitively.

    Resolution order: exact key, the registry's canonical table label
    (``"cilk"`` -> ``"Cilk"``), then a case-insensitive scan over the
    recorded keys (stage labels like ``"Init"``, spec strings).  Raises
    :class:`KeyError` when the label matches nothing — a missing label is a
    caller error and must not silently turn into a NaN ratio.
    """
    if label in costs:
        return label
    canonical = canonical_table_label(label)
    if canonical is not None and canonical in costs:
        return canonical
    lowered = label.strip().lower()
    for key in costs:
        if key.lower() == lowered:
            return key
    raise KeyError(
        f"label {label!r} not among the recorded costs "
        f"({', '.join(costs) if costs else 'none recorded'})"
    )


def _cost_ratio(cost: float, baseline_cost: float) -> float:
    """``cost / baseline_cost`` with explicit zero-baseline semantics.

    A zero-cost baseline is legitimate (e.g. an empty or zero-work
    instance): anything costlier is infinitely worse (``inf``), an equally
    free schedule is on par (``1.0``).  NaN is never returned.
    """
    if baseline_cost == 0:
        return float("inf") if cost > 0 else 1.0
    return cost / baseline_cost


@dataclass
class InstanceResult:
    """Costs of every algorithm on a single (DAG, machine) instance."""

    dag_name: str
    num_nodes: int
    machine: BspMachine
    costs: Dict[str, float] = field(default_factory=dict)
    best_initializer: str = ""
    initializer_costs: Dict[str, float] = field(default_factory=dict)

    def ratio(self, label: str, baseline: str = "Cilk") -> float:
        """Cost ratio of ``label`` to ``baseline`` on this instance.

        Labels are resolved through the registry's canonical-label mapping
        (case-insensitive), so ``ratio("ilp", "cilk")`` works; unknown
        labels raise :class:`KeyError`.
        """
        cost = self.costs[resolve_cost_label(self.costs, label)]
        baseline_cost = self.costs[resolve_cost_label(self.costs, baseline)]
        return _cost_ratio(cost, baseline_cost)


@dataclass
class ExperimentResult:
    """Results of one experiment configuration over a list of instances."""

    machine_description: str
    instances: List[InstanceResult] = field(default_factory=list)

    def labels(self) -> List[str]:
        labels: List[str] = []
        for inst in self.instances:
            for label in inst.costs:
                if label not in labels:
                    labels.append(label)
        return labels

    def mean_ratio(self, label: str, baseline: str = "Cilk") -> float:
        """Geometric-mean cost ratio of ``label`` to ``baseline``."""
        ratios = [inst.ratio(label, baseline) for inst in self.instances]
        return geometric_mean(ratios)

    def improvement(self, label: str, baseline: str) -> float:
        """Cost reduction of ``label`` relative to ``baseline`` (e.g. 0.24 = 24%)."""
        return 1.0 - self.mean_ratio(label, baseline)


# ----------------------------------------------------------------------
# Work items
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """One unit of engine work: run one scheduler on one instance.

    ``scheduler`` is a registry name (resolved via
    :func:`repro.registry.make_scheduler`) or one of the two composite
    pseudo-names :data:`PIPELINE_ITEM` / :data:`MULTILEVEL_ITEM`.
    """

    index: int
    instance: int
    dag: ComputationalDAG
    machine: BspMachine
    scheduler: str
    label: Optional[str] = None
    pipeline_config: Optional[PipelineConfig] = None
    multilevel_config: Optional[MultilevelConfig] = None
    keep_schedule: bool = False

    @classmethod
    def from_request(
        cls,
        request: SolveRequest,
        *,
        index: int = 0,
        instance: int = 0,
        keep_schedule: bool = False,
    ) -> "WorkItem":
        """Build a work item from a declarative :class:`~repro.spec.SolveRequest`.

        This is the single path from the public request format into the
        engine: the scheduler spec is canonicalized (merging the request's
        seed / time budget, see
        :func:`repro.registry.canonical_scheduler_spec`) and the DAG and
        machine are materialized from the problem spec.  Callers that
        already hold the built instance use :func:`spec_items`.
        """
        scheduler = canonical_scheduler_spec(
            request.scheduler, seed=request.seed, time_budget=request.time_budget
        )
        return cls(
            index=index,
            instance=instance,
            dag=request.spec.build_dag(),
            machine=request.spec.build_machine(),
            scheduler=scheduler,
            keep_schedule=keep_schedule,
        )

    def signature(self) -> str:
        """Digest of everything that determines this item's costs.

        Stored in checkpoint records so that resume only reuses a record
        produced by an identical (dag, machine, scheduler, config) item —
        same index alone is not proof of same work.
        """
        dag, machine = self.dag, self.machine
        structure = hashlib.md5()
        structure.update(np.ascontiguousarray(dag.edge_sources).tobytes())
        structure.update(np.ascontiguousarray(dag.edge_targets).tobytes())
        structure.update(np.ascontiguousarray(dag.work).tobytes())
        structure.update(np.ascontiguousarray(dag.comm).tobytes())
        structure.update(np.ascontiguousarray(dag.memory).tobytes())
        structure.update(np.ascontiguousarray(machine.numa).tobytes())
        if machine.memory_bounds is not None:
            structure.update(np.ascontiguousarray(machine.memory_bounds).tobytes())
        payload = "|".join(
            (
                self.scheduler,
                dag.name,
                str(dag.n),
                str(machine.P),
                str(machine.g),
                str(machine.l),
                structure.hexdigest(),
                repr(self.pipeline_config),
                repr(self.multilevel_config),
            )
        )
        return hashlib.md5(payload.encode()).hexdigest()


def spec_items(
    dag: ComputationalDAG,
    machine: BspMachine,
    specs: Sequence[str],
    labels: Optional[Sequence[str]] = None,
    *,
    first_index: int = 0,
    instance: int = 0,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
    keep_schedule: bool = False,
) -> List[WorkItem]:
    """One work item per scheduler spec string on a prebuilt instance.

    Each item runs the canonical spec (merging ``seed`` and ``time_budget``,
    see :func:`repro.registry.canonical_scheduler_spec`) and records its cost
    under its label — the spec string as given unless ``labels`` names
    them.  Items are numbered from ``first_index``; the DAG and machine are
    shared, not copied, so wrapping them in a problem spec is never needed.
    """
    return [
        WorkItem(
            index=first_index + k,
            instance=instance,
            dag=dag,
            machine=machine,
            scheduler=canonical_scheduler_spec(spec, seed=seed, time_budget=time_budget),
            label=label,
            keep_schedule=keep_schedule,
        )
        for k, (spec, label) in enumerate(zip(specs, specs if labels is None else labels))
    ]


@dataclass
class WorkItemResult:
    """Outcome of one work item (costs keyed by table label)."""

    index: int
    instance: int
    costs: Dict[str, float]
    best_initializer: str = ""
    initializer_costs: Dict[str, float] = field(default_factory=dict)
    schedule: Optional[BspSchedule] = None
    #: Identity of the work item that produced this result (used to match
    #: checkpoint records against the current run on resume).
    scheduler: str = ""
    dag_name: str = ""
    item_signature: str = ""
    #: Cost breakdown of the final schedule (work_cost / comm_cost /
    #: latency_cost / num_supersteps) — persisted in checkpoints so the API
    #: facade can rebuild full :class:`~repro.spec.SolveResult`\ s on resume
    #: without re-running the scheduler.
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds spent executing the item.
    seconds: float = 0.0
    #: Whether the item produced a valid schedule.  Only tolerant execution
    #: (see :func:`execute_work_item_tolerant`) ever records ``False`` —
    #: strict execution raises instead.
    valid: bool = True
    #: Failure description of an invalid tolerant result (empty when valid).
    error: str = ""

    def matches(self, item: WorkItem) -> bool:
        """True if this (checkpoint) result belongs to ``item``."""
        return (
            self.index == item.index
            and self.instance == item.instance
            and self.scheduler == item.scheduler
            and self.dag_name == item.dag.name
            and self.item_signature == item.signature()
        )

    def as_record(self) -> dict:
        """JSON-serializable checkpoint record (schedules are not persisted)."""
        return {
            "item": self.index,
            "instance": self.instance,
            "scheduler": self.scheduler,
            "dag": self.dag_name,
            "signature": self.item_signature,
            "costs": dict(self.costs),
            "best_initializer": self.best_initializer,
            "initializer_costs": dict(self.initializer_costs),
            "breakdown": dict(self.breakdown),
            "seconds": self.seconds,
            "valid": self.valid,
            "error": self.error,
        }

    @classmethod
    def from_record(cls, record: dict) -> "WorkItemResult":
        return cls(
            index=int(record["item"]),
            instance=int(record["instance"]),
            costs={k: float(v) for k, v in record["costs"].items()},
            best_initializer=record.get("best_initializer", ""),
            initializer_costs={
                k: float(v) for k, v in record.get("initializer_costs", {}).items()
            },
            scheduler=record.get("scheduler", ""),
            dag_name=record.get("dag", ""),
            item_signature=record.get("signature", ""),
            breakdown={k: float(v) for k, v in record.get("breakdown", {}).items()},
            seconds=float(record.get("seconds", 0.0)),
            valid=bool(record.get("valid", True)),
            error=str(record.get("error", "")),
        )


def _schedule_breakdown(schedule: BspSchedule) -> Dict[str, float]:
    """Flat cost breakdown of a schedule, as stored in checkpoint records."""
    breakdown = schedule.cost_breakdown()
    return {
        "total_cost": float(breakdown.total),
        "work_cost": float(breakdown.work_cost),
        "comm_cost": float(breakdown.comm_cost),
        "latency_cost": float(breakdown.latency_cost),
        "num_supersteps": float(breakdown.num_supersteps),
    }


def execute_work_item(item: WorkItem) -> WorkItemResult:
    """Run one work item; every recorded cost comes from a checked schedule."""
    with _trace.span(
        "solve", scheduler=item.scheduler, dag=item.dag.name, nodes=item.dag.n
    ) as tspan:
        result = _execute_work_item(item)
        if _trace.enabled():
            tspan.annotate(costs=dict(result.costs))
        return result


def _execute_work_item(item: WorkItem) -> WorkItemResult:
    dag, machine = item.dag, item.machine
    start = time.perf_counter()
    if item.scheduler == PIPELINE_ITEM:
        from ..pipeline.framework import run_pipeline

        pipe = run_pipeline(dag, machine, item.pipeline_config)
        pipe.schedule.validate()
        return WorkItemResult(
            index=item.index,
            instance=item.instance,
            costs={
                "Init": pipe.init_cost,
                "HCcs": pipe.local_search_cost,
                "ILPpart": pipe.ilp_assignment_cost,
                "ILP": pipe.final_cost,
            },
            best_initializer=pipe.best_initializer,
            initializer_costs=dict(pipe.initializer_costs),
            schedule=pipe.schedule if item.keep_schedule else None,
            scheduler=item.scheduler,
            dag_name=dag.name,
            item_signature=item.signature(),
            breakdown=_schedule_breakdown(pipe.schedule),
            seconds=time.perf_counter() - start,
        )
    if item.scheduler == MULTILEVEL_ITEM:
        assert item.multilevel_config is not None
        from ..multilevel.scheduler import multilevel_schedule

        ml_schedule, per_ratio = multilevel_schedule(dag, machine, item.multilevel_config)
        ml_schedule.validate()
        breakdown = _schedule_breakdown(ml_schedule)
        costs: Dict[str, float] = {"ML": breakdown["total_cost"]}
        for ratio, cost in per_ratio.items():
            costs[f"ML@{ratio:g}"] = float(cost)
        return WorkItemResult(
            index=item.index,
            instance=item.instance,
            costs=costs,
            schedule=ml_schedule if item.keep_schedule else None,
            scheduler=item.scheduler,
            dag_name=dag.name,
            item_signature=item.signature(),
            breakdown=breakdown,
            seconds=time.perf_counter() - start,
        )
    scheduler = make_scheduler(item.scheduler)
    schedule = scheduler.schedule_checked(dag, machine)
    label = item.label if item.label is not None else scheduler.name
    breakdown = _schedule_breakdown(schedule)
    return WorkItemResult(
        index=item.index,
        instance=item.instance,
        costs={label: breakdown["total_cost"]},
        schedule=schedule if item.keep_schedule else None,
        scheduler=item.scheduler,
        dag_name=dag.name,
        item_signature=item.signature(),
        breakdown=breakdown,
        seconds=time.perf_counter() - start,
    )


def execute_work_item_tolerant(item: WorkItem) -> WorkItemResult:
    """Like :func:`execute_work_item`, but a scheduling failure is a result.

    A scheduler that raises :class:`~repro.scheduler.SchedulingError`,
    produces a schedule failing validation, or cannot even be built from its
    spec (``ValueError`` from the registry — unknown parameters, bad values)
    yields an *invalid* result — ``valid=False``, infinite cost, the error
    message preserved — instead of tearing down the whole batch.  Used by
    the ``repro batch`` surface (one bad request must not lose the other
    results) and by portfolio racing (a failing candidate is eliminated,
    not fatal).
    """
    start = time.perf_counter()
    try:
        return execute_work_item(item)
    except WORK_ITEM_FAILURES as exc:
        label = item.label if item.label is not None else item.scheduler
        return WorkItemResult(
            index=item.index,
            instance=item.instance,
            costs={label: float("inf")},
            scheduler=item.scheduler,
            dag_name=item.dag.name,
            item_signature=item.signature(),
            breakdown={
                "total_cost": float("inf"),
                "work_cost": 0.0,
                "comm_cost": 0.0,
                "latency_cost": 0.0,
                "num_supersteps": 0.0,
            },
            seconds=time.perf_counter() - start,
            valid=False,
            error=str(exc),
        )


def _merge_instance(
    dag: ComputationalDAG, machine: BspMachine, results: Iterable[WorkItemResult]
) -> InstanceResult:
    """Fold the work-item results of one instance, in item-index order."""
    merged = InstanceResult(dag_name=dag.name, num_nodes=dag.n, machine=machine)
    for result in sorted(results, key=lambda r: r.index):
        merged.costs.update(result.costs)
        if result.best_initializer:
            merged.best_initializer = result.best_initializer
            merged.initializer_costs = dict(result.initializer_costs)
    return merged


# ----------------------------------------------------------------------
# The parallel engine
# ----------------------------------------------------------------------
def _resolve_jobs(jobs: Optional[int]) -> int:
    """``jobs``, else the ``REPRO_JOBS`` environment variable, else serial."""
    if jobs is not None:
        return max(1, int(jobs))
    return max(1, int(os.environ.get("REPRO_JOBS", "1")))


class ParallelRunner:
    """Execute work items serially or on a ``multiprocessing`` pool.

    Results are returned in work-item index order no matter in which order
    workers finish, so aggregate tables are identical for every ``jobs``
    value.  With a ``checkpoint`` path, every finished item is appended to a
    JSONL file as it completes (see
    :class:`repro.experiments.persistence.CheckpointWriter`); with
    ``resume=True``, items already present in that file are not re-run.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        tolerant: bool = False,
    ) -> None:
        self.jobs = _resolve_jobs(jobs)
        self.checkpoint = checkpoint
        self.resume = resume
        #: With ``tolerant=True`` scheduling failures become invalid results
        #: (see :func:`execute_work_item_tolerant`) instead of exceptions.
        self.tolerant = tolerant

    # ------------------------------------------------------------------
    def execute(self, items: Sequence[WorkItem]) -> List[WorkItemResult]:
        """Run all work items; the result list is index-aligned with ``items``."""
        from .persistence import CheckpointWriter, iter_checkpoint

        run_item = execute_work_item_tolerant if self.tolerant else execute_work_item
        done: Dict[int, WorkItemResult] = {}
        if self.resume and self.checkpoint and os.path.exists(self.checkpoint):
            item_by_index = {item.index: item for item in items}
            # Streamed, not materialized: resume over a huge checkpoint file
            # keeps constant memory (only matching records are retained).
            for record in iter_checkpoint(self.checkpoint):
                result = WorkItemResult.from_record(record)
                item = item_by_index.get(result.index)
                # Only reuse a record that provably belongs to this run's
                # work item; records from a different dataset / scheduler
                # set are ignored and the item is re-run.
                if item is not None and result.matches(item):
                    done[result.index] = result
        pending = [item for item in items if item.index not in done]

        # Without resume an existing checkpoint belongs to a previous run:
        # start the file fresh instead of appending a second run's records.
        writer = (
            CheckpointWriter(self.checkpoint, append=self.resume)
            if self.checkpoint
            else None
        )
        try:
            if self.jobs <= 1 or len(pending) <= 1:
                for item in pending:
                    result = run_item(item)
                    done[result.index] = result
                    if writer is not None:
                        writer.append(result.as_record())
            else:
                ctx = multiprocessing.get_context()
                with ctx.Pool(processes=min(self.jobs, len(pending))) as pool:
                    for result in pool.imap_unordered(run_item, pending):
                        done[result.index] = result
                        if writer is not None:
                            writer.append(result.as_record())
        finally:
            if writer is not None:
                writer.close()
        return [done[item.index] for item in items]


# ----------------------------------------------------------------------
# Aggregate API (used by the tables, sweeps and tests)
# ----------------------------------------------------------------------
def run_experiment(
    dags: Sequence[ComputationalDAG],
    machine: BspMachine,
    *,
    pipeline_config: Optional[PipelineConfig] = None,
    include_list_baselines: bool = True,
    multilevel_config: Optional[MultilevelConfig] = None,
    baselines_only: bool = False,
    jobs: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> ExperimentResult:
    """Run the full label set over a dataset and aggregate per instance.

    With ``jobs > 1`` (or a matching ``REPRO_JOBS`` default) the work items
    are executed on a process pool; aggregates are identical to the serial
    run either way.
    """
    # Per instance, in table label order: the baselines (each running the
    # registry name of its label), then the pipeline and multilevel items.
    labels = ["Cilk", "HDagg"] + (["BL-EST", "ETF"] if include_list_baselines else []) + ["Trivial"]
    specs = [registry_name_for_label(label) for label in labels]
    items: List[WorkItem] = []
    for instance, dag in enumerate(dags):
        items += spec_items(dag, machine, specs, labels, first_index=len(items), instance=instance)
        if baselines_only:
            continue
        items.append(
            WorkItem(
                index=len(items),
                instance=instance,
                dag=dag,
                machine=machine,
                scheduler=PIPELINE_ITEM,
                pipeline_config=pipeline_config,
            )
        )
        if multilevel_config is not None:
            items.append(
                WorkItem(
                    index=len(items),
                    instance=instance,
                    dag=dag,
                    machine=machine,
                    scheduler=MULTILEVEL_ITEM,
                    multilevel_config=multilevel_config,
                )
            )
    results = ParallelRunner(jobs, checkpoint=checkpoint, resume=resume).execute(items)
    experiment = ExperimentResult(machine_description=machine.describe())
    for instance, dag in enumerate(dags):
        experiment.instances.append(
            _merge_instance(dag, machine, [r for r in results if r.instance == instance])
        )
    return experiment


def schedule_many(
    dag: ComputationalDAG,
    machine: BspMachine,
    scheduler_names: Sequence[str],
    *,
    jobs: Optional[int] = None,
) -> List[Tuple[str, BspSchedule]]:
    """Run several registry schedulers on one instance, keeping the schedules.

    This is the engine entry point used by the command line: each scheduler
    spec is one work item (see :func:`spec_items`, so parameterized specs
    like ``"hc(max_moves=50)"`` work), executed in parallel when
    ``jobs > 1``, and the checked schedules come back in the order the
    names were given.
    """
    items = spec_items(dag, machine, scheduler_names, keep_schedule=True)
    results = ParallelRunner(jobs).execute(items)
    out: List[Tuple[str, BspSchedule]] = []
    for name, result in zip(scheduler_names, results):
        assert result.schedule is not None
        out.append((name, result.schedule))
    return out
