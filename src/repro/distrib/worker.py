"""The pull-based queue worker: claim, solve, answer, repeat.

A worker drains one :class:`~repro.distrib.queue.DirectoryQueue` until it is
empty (or keeps polling with ``max_idle > 0``), solving every claimed
request through the same tolerant execution path as ``repro batch`` — so a
result file carries byte-for-byte the JSON the one-shot CLI would have
printed for that request.  Any number of workers on any number of hosts may
drain the same queue; the atomic-claim protocol guarantees each task is
executed by exactly one of them, and a shared solution cache (via
``--cache-dir`` / ``REPRO_CACHE_DIR``) lets all of them reuse each other's
solves.

Failure taxonomy (mirrors the batch CLI):

* scheduler failure / invalid schedule → an *answered* result with
  ``valid=False`` (tolerant execution; never retried),
* request that cannot be constructed (unknown scheduler, unbuildable DAG) →
  an answered invalid result via
  :func:`repro.api.broken_request_result` (never retried),
* anything unexpected (corrupt envelope, crash in the machinery) → the task
  is requeued with a bumped attempt counter and dead-lettered to ``failed/``
  after ``max_attempts``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..obs import trace as _trace
from .queue import DEFAULT_MAX_ATTEMPTS, DirectoryQueue, Envelope, PathLike

__all__ = ["WorkerStats", "run_worker", "solve_envelope"]


@dataclass
class WorkerStats:
    """What one worker run did (the ``repro worker`` exit report)."""

    solved: int = 0
    invalid: int = 0
    retried: int = 0
    dead_lettered: int = 0
    #: Queue claim attempts.
    scans: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return self.solved + self.invalid


def solve_envelope(envelope: Envelope):
    """Solve one claimed envelope tolerantly; returns a ``SolveResult``.

    Raises only on machinery failures (which the caller turns into a retry /
    dead-letter); request-level failures come back as invalid results.
    """
    from ..api import broken_request_result, to_solve_result
    from ..experiments.runner import (
        REQUEST_BUILD_FAILURES,
        WorkItem,
        execute_work_item_tolerant,
    )
    from ..spec import SpecError

    try:
        request = envelope.build_request()
    except (SpecError, KeyError, TypeError, ValueError) as exc:
        raise RuntimeError(f"malformed solve request: {exc}") from exc
    try:
        item = WorkItem.from_request(request)
    except REQUEST_BUILD_FAILURES as exc:
        return broken_request_result(request, exc)
    return to_solve_result(item, execute_work_item_tolerant(item))


def run_worker(
    queue_dir: PathLike,
    *,
    max_idle: float = 0.0,
    poll_interval: float = 0.2,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    max_tasks: Optional[int] = None,
    solver: Optional[Callable[[Envelope], object]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Drain a queue directory; return the per-worker statistics.

    ``max_idle = 0`` (the default) exits as soon as one full scan finds no
    claimable work — the drain mode the CI smoke job and ``solve_many``'s
    inline worker use.  ``max_idle > 0`` keeps polling every
    ``poll_interval`` seconds until the queue stays empty for ``max_idle``
    seconds — the long-running multi-host mode.  ``max_tasks`` bounds the
    number of claims (testing aid).  ``solver`` overrides the solve function
    (testing aid; defaults to :func:`solve_envelope`).
    """
    queue = DirectoryQueue(queue_dir)
    queue.ensure_layout()
    solve = solver if solver is not None else solve_envelope
    stats = WorkerStats()
    idle_since: Optional[float] = None
    while True:
        if max_tasks is not None and stats.answered + stats.dead_lettered >= max_tasks:
            break
        envelope = queue.claim_next()
        stats.scans += 1
        if envelope is None:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if now - idle_since >= max_idle:
                break
            time.sleep(poll_interval)
            continue
        idle_since = None
        try:
            with _trace.span("worker_task", task=str(envelope.id)) as tspan:
                result = solve(envelope)
                if _trace.enabled():
                    tspan.annotate(valid=bool(getattr(result, "valid", True)))
        except Exception as exc:  # machinery failure: retry, then dead-letter
            error = f"{type(exc).__name__}: {exc}"
            stats.errors.append(error)
            if queue.retry_or_fail(envelope, error, max_attempts=max_attempts):
                stats.retried += 1
                if log is not None:
                    log(f"task {envelope.id} failed (attempt {envelope.attempts + 1}), requeued: {error}")
            else:
                stats.dead_lettered += 1
                if log is not None:
                    log(f"task {envelope.id} dead-lettered after {envelope.attempts + 1} attempts: {error}")
            continue
        queue.complete(envelope, result)  # type: ignore[arg-type]
        if getattr(result, "valid", True):
            stats.solved += 1
        else:
            stats.invalid += 1
        if log is not None:
            log(f"task {envelope.id} answered ({'ok' if getattr(result, 'valid', True) else 'invalid'})")
    stats.dead_lettered += queue.raw_dead_letters
    return stats
