"""The batch solve facade: one declarative entry point for scheduling requests.

This module is the public, config-first surface of the package.  Callers
describe *what* to solve with the frozen spec types of :mod:`repro.spec` and
the registry's scheduler spec strings, and the facade takes care of *how*:
materializing DAGs and machines, resolving schedulers, validating schedules,
and batching work onto the parallel experiment engine with checkpoint /
resume.

::

    from repro import api
    from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

    spec = ProblemSpec(
        dag=DagSpec.generator("spmv", n=12, q=0.25, seed=42),
        machine=MachineSpec(P=4, g=3, l=5),
    )
    result = api.solve(SolveRequest(spec=spec, scheduler="framework"))
    ranking = api.compare(spec, ["cilk", "hdagg", "hc(max_moves=200)"])

Batches (:func:`solve_many`) run through
:class:`repro.experiments.runner.ParallelRunner`: ``jobs > 1`` fans the
requests out over a process pool with deterministic result ordering, and a
``checkpoint`` JSONL path makes the batch resumable — results already in the
checkpoint are not re-solved.  The JSONL helpers (:func:`load_requests`,
:func:`write_results`) round-trip the request/result wire format used by the
``python -m repro batch`` subcommand.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, TextIO, Union

from .experiments.runner import (
    REQUEST_BUILD_FAILURES,
    ParallelRunner,
    WorkItem,
    WorkItemResult,
    spec_items,
)
from .registry import make_scheduler, scheduler_info
from .spec import MachineSpec, ProblemSpec, SolveRequest, SolveResult, SpecError

__all__ = [
    "solve",
    "solve_many",
    "compare",
    "load_requests",
    "write_results",
    "reproduce",
    "to_solve_result",
    "broken_request_result",
]

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Request -> result
# ----------------------------------------------------------------------
def to_solve_result(item: WorkItem, result: WorkItemResult) -> SolveResult:
    """Assemble the public result from an executed (or resumed) work item.

    This is the single place a :class:`~repro.experiments.runner.WorkItemResult`
    becomes a public :class:`~repro.spec.SolveResult`; the batch facade and
    the :mod:`repro.serve` daemon share it so a served solve is bytewise the
    result of the equivalent one-shot solve, and the single reader of
    :attr:`repro.scheduler.Scheduler.deterministic` for a valid result.
    """
    if result.valid:
        description = scheduler_info(item.scheduler).description
        deterministic = make_scheduler(item.scheduler).deterministic
    else:
        # The failed scheduler is not rebuilt to ask (building it may be
        # what failed); like a request that cannot be built at all, an
        # invalid result never claims to be deterministic.
        description, deterministic = result.error, False
    breakdown = result.breakdown
    total = breakdown.get("total_cost")
    if total is None:
        # Registry items record exactly one cost under their label.
        total = next(iter(result.costs.values()))
    return SolveResult(
        scheduler=item.scheduler,
        dag_name=item.dag.name,
        num_nodes=int(item.dag.n),
        machine=MachineSpec.from_machine(item.machine),
        total_cost=float(total),
        work_cost=float(breakdown.get("work_cost", 0.0)),
        comm_cost=float(breakdown.get("comm_cost", 0.0)),
        latency_cost=float(breakdown.get("latency_cost", 0.0)),
        num_supersteps=int(breakdown.get("num_supersteps", 0)),
        # Strict execution validates every schedule it costs; a tolerant
        # batch records the failure on the result instead of raising.
        valid=result.valid,
        wall_seconds=float(result.seconds),
        scheduler_description=description,
        deterministic=deterministic,
    )


def broken_request_result(request: SolveRequest, exc: Exception) -> SolveResult:
    """Invalid result for a request that failed before it could execute.

    Shared by tolerant batches and the :mod:`repro.serve` thin client, so a
    request that cannot even be constructed is reported identically whether
    it failed locally or on the daemon.
    """
    dag = request.spec.dag
    return SolveResult(
        scheduler=request.scheduler,
        dag_name=dag.name or dag.kind or dag.path or "inline",
        num_nodes=int(dag.n) if dag.n is not None else 0,
        machine=request.spec.machine,
        total_cost=float("inf"),
        work_cost=0.0,
        comm_cost=0.0,
        latency_cost=0.0,
        num_supersteps=0,
        valid=False,
        scheduler_description=str(exc),
        deterministic=False,
    )


def solve(request: SolveRequest) -> SolveResult:
    """Solve one request: build the instance, run the scheduler, validate.

    The scheduler spec is resolved through the registry (the request's
    ``seed`` / ``time_budget`` are merged into it when the scheduler accepts
    them), and the resulting schedule is validity-checked before its cost is
    reported — an invalid schedule raises instead of returning a bogus cost.
    """
    from .experiments.runner import execute_work_item

    item = WorkItem.from_request(request)
    return to_solve_result(item, execute_work_item(item))


def solve_many(
    requests: Sequence[SolveRequest],
    *,
    jobs: Optional[int] = None,
    checkpoint: Optional[PathLike] = None,
    resume: bool = False,
    tolerant: bool = False,
    queue_dir: Optional[PathLike] = None,
    queue_timeout: Optional[float] = None,
) -> List[SolveResult]:
    """Solve a batch of requests, optionally in parallel and resumably.

    Results come back in request order regardless of worker completion
    order, so a ``jobs > 1`` batch of deterministic schedulers is
    bytewise identical to a serial :func:`solve` loop.  With ``checkpoint``
    every finished request is appended to a JSONL file as it completes;
    ``resume=True`` skips requests whose results are already recorded there
    (matched by a content signature, never by position alone).

    With ``tolerant=True`` a request whose scheduler fails (or produces an
    invalid schedule, or cannot even be constructed — unknown scheduler,
    unbuildable DAG spec) yields a result with ``valid=False`` and infinite
    cost instead of aborting the batch — the contract of the ``repro batch``
    subcommand, which reports such requests in its exit status.

    With ``queue_dir`` the batch fans out over a shared-filesystem work
    queue (:mod:`repro.distrib`): the requests are enqueued as task files
    and this process participates as one inline worker, so the call always
    completes on its own — while any number of additional ``repro worker``
    processes on any hosts sharing the directory (and, via
    ``REPRO_CACHE_DIR``, one solution cache) drain the same queue and
    accelerate it.  Results are byte-identical to the non-queued path for
    deterministic schedulers.  ``jobs``/``checkpoint``/``resume`` do not
    apply to queued batches (checkpointing is subsumed by the queue's own
    ``results/`` directory); ``queue_timeout`` bounds the wait for results
    answered by external workers.
    """
    if queue_dir is not None:
        if checkpoint is not None or resume:
            raise ValueError("queue_dir cannot be combined with checkpoint/resume")
        return _solve_many_queued(
            requests, queue_dir, tolerant=tolerant, timeout=queue_timeout
        )
    items: List[WorkItem] = []
    broken: dict = {}
    for k, request in enumerate(requests):
        try:
            items.append(WorkItem.from_request(request, index=k, instance=k))
        except REQUEST_BUILD_FAILURES as exc:
            # Construction failures (unknown scheduler spec, bad generator
            # parameters, unreadable hyperDAG file) happen before the
            # tolerant runner is reached — fold them into invalid results
            # here so one malformed request cannot sink the batch.
            if not tolerant:
                raise
            broken[k] = broken_request_result(request, exc)
    checkpoint_path = str(checkpoint) if checkpoint is not None else None
    runner = ParallelRunner(
        jobs, checkpoint=checkpoint_path, resume=resume, tolerant=tolerant
    )
    results = runner.execute(items)
    # A strict batch re-runs (and re-records) invalid records resumed from
    # an earlier *tolerant* run: strict callers are promised an exception,
    # not a silent valid=False result, and the re-run raises the real error.
    stale = [
        item for item, result in zip(items, results) if not tolerant and not result.valid
    ]
    if stale:
        redone = ParallelRunner(jobs, tolerant=tolerant).execute(stale)
        by_index = {result.index: result for result in redone}
        results = [by_index.get(result.index, result) for result in results]
        if checkpoint_path is not None:
            from .experiments.persistence import CheckpointWriter

            with CheckpointWriter(checkpoint_path, append=True) as writer:
                for result in redone:
                    writer.append(result.as_record())
    solved = {
        item.index: to_solve_result(item, result)
        for item, result in zip(items, results)
    }
    solved.update(broken)
    return [solved[k] for k in range(len(requests))]


def _solve_many_queued(
    requests: Sequence[SolveRequest],
    queue_dir: PathLike,
    *,
    tolerant: bool,
    timeout: Optional[float],
    poll_interval: float = 0.05,
) -> List[SolveResult]:
    """Enqueue a batch and drain the queue inline until it is answered.

    The claim protocol makes this cooperative by construction: this process
    claims and solves tasks exactly like an external ``repro worker`` —
    including tasks enqueued by *other* producers sharing the queue — and
    between claims polls for its own results, which external workers may be
    producing concurrently.
    """
    import time

    from .distrib.queue import DirectoryQueue, QueueError
    from .distrib.worker import solve_envelope

    queue = DirectoryQueue(queue_dir)
    ids = queue.enqueue(requests)
    answered: dict = {}
    failures: dict = {}
    deadline = None if timeout is None else time.monotonic() + timeout
    while len(answered) + len(failures) < len(ids):
        envelope = queue.claim_next()
        if envelope is not None:
            try:
                result = solve_envelope(envelope)
            except Exception as exc:  # mirror the worker's retry policy
                queue.retry_or_fail(envelope, f"{type(exc).__name__}: {exc}")
            else:
                queue.complete(envelope, result)
        progressed = queue.poll_answers(ids, answered, failures)
        if failures and not tolerant:
            index = next(k for k, task_id in enumerate(ids) if task_id in failures)
            raise QueueError(f"request {index + 1} dead-lettered: {failures[ids[index]]}")
        if len(answered) + len(failures) >= len(ids):
            break
        if envelope is None and not progressed:
            if deadline is not None and time.monotonic() > deadline:
                unanswered = [k + 1 for k, t in enumerate(ids) if t not in answered and t not in failures]
                raise QueueError(
                    f"queued batch timed out after {timeout}s; "
                    f"unanswered request(s): {unanswered[:10]}"
                )
            time.sleep(poll_interval)
    results = [
        answered[t] if t in answered else broken_request_result(r, RuntimeError(failures[t]))
        for r, t in zip(requests, ids)
    ]
    if not tolerant:
        for index, result in enumerate(results):
            if not result.valid:
                raise RuntimeError(
                    f"request {index + 1} failed on the queue: "
                    f"{result.scheduler_description or 'invalid schedule'}"
                )
    return results


def compare(
    spec: ProblemSpec,
    scheduler_specs: Sequence[str],
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> List[SolveResult]:
    """Run several schedulers on one problem; results in the given order.

    The problem's DAG and machine are built once and every spec runs on
    that one instance (a seedless generator spec is one random draw, not
    one per scheduler), sharing the seed and time budget.  Each result is
    the one :func:`solve` gives for that spec on the same instance.
    """
    dag, machine = spec.build_dag(), spec.build_machine()
    items = spec_items(dag, machine, scheduler_specs, seed=seed, time_budget=time_budget)
    results = ParallelRunner(jobs).execute(items)
    return [to_solve_result(item, result) for item, result in zip(items, results)]


# ----------------------------------------------------------------------
# JSONL wire helpers (the `repro batch` format)
# ----------------------------------------------------------------------
def load_requests(path: PathLike) -> List[SolveRequest]:
    """Read solve requests from a JSONL file (one request object per line)."""
    requests: List[SolveRequest] = []
    with Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                requests.append(SolveRequest.from_dict(data))
            except (SpecError, KeyError, TypeError, ValueError) as exc:
                raise SpecError(f"{path}:{lineno}: invalid solve request: {exc}") from exc
    return requests


def write_results(
    results: Iterable[SolveResult],
    target: Union[PathLike, TextIO],
    *,
    timing: bool = False,
) -> None:
    """Write results as JSONL (sorted keys, one object per line).

    Without ``timing`` the output is deterministic for deterministic
    schedulers, so two runs of the same batch — serial or parallel — can be
    compared bytewise.
    """
    lines = (result.to_json(timing=timing) + "\n" for result in results)
    if hasattr(target, "write"):
        for line in lines:
            target.write(line)
    else:
        with Path(target).open("w") as handle:
            for line in lines:
                handle.write(line)


# ----------------------------------------------------------------------
# Paper-table facade
# ----------------------------------------------------------------------
def reproduce(target: str, *, scale: str = "smoke", jobs: Optional[int] = None, seed: int = 7):
    """Regenerate one paper table / figure by name (``"table1"`` .. ``"fig7"``).

    Delegates to :func:`repro.experiments.tables.reproduce`; exposed here so
    scripts depending on the facade need no second import path.
    """
    from .experiments.tables import reproduce as _reproduce

    return _reproduce(target, scale=scale, jobs=jobs, seed=seed)
