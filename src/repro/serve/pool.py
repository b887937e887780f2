"""Bounded request queue + worker pool of the solve daemon.

The pool is the execution half of :mod:`repro.serve.server`:

* a bounded :class:`queue.Queue` gives the daemon *explicit backpressure* —
  when it is full, :meth:`WorkerPool.submit` reports ``"full"`` and the
  server answers ``queue-full`` with a ``retry_after`` hint instead of
  buffering unbounded work;
* worker threads execute :class:`~repro.experiments.runner.WorkItem`\\ s via
  the same :func:`~repro.experiments.runner.execute_work_item_tolerant`
  machinery the batch facade uses, so a daemon solve is bytewise the same
  computation as ``repro.api.solve``;
* one shared :class:`~repro.portfolio.cache.SolutionCache` (disk + in-process
  LRU) is consulted before and populated after every deterministic solve, so
  repeated traffic across *all* clients is served warm;
* per-request deadlines are enforced by a monitor thread: a request that
  times out gets a structured ``timeout`` error exactly once — if the
  underlying scheduler is still running its result is discarded (but still
  stored in the cache, warming future requests).

Threads (not processes) are the right pool here: the numpy kernels release
the GIL for the heavy parts, every worker shares one warm LRU, and tickets
carry live socket callbacks that cannot cross a process boundary.  A client
needing process-level parallelism for one huge batch can submit through
several connections or run ``repro batch --jobs N`` against the same cache
directory.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..api import broken_request_result, to_solve_result
from ..experiments.runner import (
    REQUEST_BUILD_FAILURES,
    WorkItem,
    execute_work_item_tolerant,
)
from ..obs import trace as _trace
from ..obs.metrics import Counter, Instrument, Metrics, percentiles
from ..portfolio.cache import SolutionCache
from ..registry import canonical_scheduler_spec
from ..spec import SolveRequest
from . import protocol

__all__ = ["Ticket", "WorkerPool"]


class Ticket:
    """One in-flight solve request with answer-exactly-once semantics.

    The ticket owns the response channel (a callable writing one message to
    the requesting connection).  :meth:`respond` delivers at most one
    response no matter how many parties race to answer — the worker thread
    finishing the solve, the deadline monitor timing it out, or the drain
    path refusing it — so a request can never be answered twice, and never
    silently dropped as long as one of them calls :meth:`respond`.
    """

    __slots__ = ("request", "rid", "deadline", "enqueued", "done", "_send", "_lock", "_answered")

    def __init__(
        self,
        request: SolveRequest,
        *,
        rid: Any,
        send: Callable[[Dict[str, Any]], None],
        deadline: Optional[float] = None,
    ) -> None:
        self.request = request
        self.rid = rid
        self._send = send
        self.deadline = deadline
        self.enqueued = time.monotonic()
        self.done = threading.Event()
        self._lock = threading.Lock()
        self._answered = False

    @property
    def answered(self) -> bool:
        return self._answered

    def respond(self, message: Dict[str, Any]) -> bool:
        """Deliver ``message`` unless the ticket was already answered."""
        with self._lock:
            if self._answered:
                return False
            self._answered = True
        try:
            self._send(message)
        finally:
            self.done.set()
        return True


class WorkerPool:
    """Fixed worker threads draining one bounded ticket queue.

    Counters and the latency window live on a per-pool
    :class:`~repro.obs.metrics.Metrics` registry (each instrument carries
    its own lock); the pool lock guards the remaining shared state (watch
    list, in-flight count, lifecycle).  The public snapshot is
    :meth:`stats`.  Lifecycle: :meth:`start` -> ``submit`` xN ->
    :meth:`drain` (finish everything queued, then stop) or
    :meth:`stop` (refuse queued tickets with ``shutting-down``).
    """

    #: How often the deadline monitor scans in-flight tickets (seconds).
    MONITOR_INTERVAL = 0.02
    #: Latency window backing the stats percentiles.
    LATENCY_WINDOW = 2048
    #: Problems whose instance signature is memoized (least recently used
    #: dropped first); a repeat of one looks the cache up without a build.
    SIGNATURE_MEMO = 1024

    def __init__(
        self,
        jobs: int = 2,
        queue_size: int = 64,
        *,
        cache: Optional[SolutionCache] = None,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.queue_size = max(1, int(queue_size))
        self.cache = cache
        self.default_timeout = default_timeout
        self._queue: "queue.Queue[Optional[Ticket]]" = queue.Queue(maxsize=self.queue_size)
        self._threads: List[threading.Thread] = []
        self._monitor: Optional[threading.Thread] = None
        self._accepting = False
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._watched: List[Ticket] = []
        self._in_flight = 0
        #: Problem key -> instance signature, for pure problems built once.
        self._signatures: "OrderedDict[str, str]" = OrderedDict()
        #: Per-pool metrics registry: request counters, one labeled error
        #: counter per protocol error code, and the bounded latency
        #: histogram that replaced the historical (unbounded) latency list.
        #: Each instrument carries its own lock, so counting never needs the
        #: pool lock.
        self.metrics = Metrics()
        self._received = self.metrics.counter(
            "repro_serve_requests_received_total", help="Requests accepted into the queue"
        )
        self._served = self.metrics.counter(
            "repro_serve_requests_served_total", help="Requests answered with a result"
        )
        self._cache_hits = self.metrics.counter(
            "repro_serve_requests_cache_hits_total",
            help="Requests served from the shared solution cache",
        )
        self._abandoned = self.metrics.counter(
            "repro_serve_requests_abandoned_total",
            help="Requests whose computed answer lost the respond race",
        )
        self._errors: Dict[str, Counter] = {
            code: self.metrics.counter(
                "repro_serve_errors_total",
                help="Structured errors answered, by protocol error code",
                labels={"code": code},
            )
            for code in protocol.ERROR_CODES
        }
        self._latency = self.metrics.histogram(
            "repro_serve_request_latency_seconds",
            help="Queue-to-response latency of served requests",
            window=self.LATENCY_WINDOW,
        )
        self._queue_depth_gauge = self.metrics.gauge(
            "repro_serve_queue_depth", help="Tickets waiting in the bounded queue"
        )
        self._in_flight_gauge = self.metrics.gauge(
            "repro_serve_in_flight", help="Tickets currently being solved"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        self._stopped.clear()
        workers = [
            threading.Thread(target=self._worker, name=f"repro-serve-worker-{k}", daemon=True)
            for k in range(self.jobs)
        ]
        monitor = threading.Thread(target=self._monitor_deadlines, name="repro-serve-deadline", daemon=True)
        with self._lock:
            self._accepting = True
            self._threads = workers
            self._monitor = monitor
        for thread in workers:
            thread.start()
        monitor.start()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop accepting, finish every queued/in-flight ticket, stop workers.

        The stop sentinels are enqueued *behind* all pending tickets, so
        every request accepted before the drain began is answered before the
        workers exit — the graceful-shutdown contract of the daemon.
        """
        with self._lock:
            self._accepting = False
        if not self._threads:
            return
        for _ in self._threads:
            self._queue.put(None)  # blocks while full; space frees as workers drain
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
        self._finish_stop()

    def stop(self) -> None:
        """Hard stop: refuse queued tickets with ``shutting-down``, then exit."""
        with self._lock:
            self._accepting = False
        if not self._threads:
            return
        refused: List[Ticket] = []
        try:
            while True:
                ticket = self._queue.get_nowait()
                if ticket is not None:
                    refused.append(ticket)
        except queue.Empty:
            pass
        for ticket in refused:
            self._refuse(ticket, protocol.E_SHUTTING_DOWN, "server is shutting down")
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._finish_stop()

    def _finish_stop(self) -> None:
        self._stopped.set()
        with self._lock:
            monitor = self._monitor
            self._monitor = None
            self._threads = []
        if monitor is not None:  # join outside the lock: the monitor takes it
            monitor.join(timeout=1.0)

    # ------------------------------------------------------------------
    # Submission / backpressure
    # ------------------------------------------------------------------
    def submit(self, ticket: Ticket) -> str:
        """Enqueue a ticket: ``"ok"``, ``"full"`` (backpressure) or ``"stopped"``."""
        if not self._accepting:
            return "stopped"
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            return "full"
        self._received.inc()
        if ticket.deadline is not None:
            with self._lock:
                self._watched.append(ticket)
        return "ok"

    def note_error(self, code: str) -> None:
        """Count a structured error answered outside the worker path.

        The server's dispatch layer refuses some requests before they ever
        become tickets (queue-full backpressure, shutting-down); counting
        them here keeps ``stats()["errors"]`` the one complete error ledger.
        """
        self._errors[code].inc()

    def retry_after(self) -> float:
        """Suggested client backoff when the queue is full.

        Rough model: the queue drains one request per worker per mean
        latency, so a full queue clears in about ``mean * depth / jobs``
        seconds.  Clamped to [0.05, 5] so a cold daemon (no latency samples
        yet) still returns a sane hint.
        """
        depth = self._queue.qsize()
        recent = self._latency.recent(64)
        mean = (sum(recent) / len(recent)) if recent else 0.1
        return min(5.0, max(0.05, mean * max(1, depth) / self.jobs))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def stats(self) -> Dict[str, Any]:
        """Snapshot of queue depth, counters and latency percentiles."""
        latencies = self._latency.values()
        counters = {
            "received": int(self._received.value),
            "served": int(self._served.value),
            "cache_hits": int(self._cache_hits.value),
            "abandoned": int(self._abandoned.value),
        }
        errors = {
            code: int(counter.value)
            for code, counter in self._errors.items()
            if counter.value
        }
        with self._lock:
            in_flight = self._in_flight
        stats: Dict[str, Any] = {
            "workers": self.jobs,
            "queue_size": self.queue_size,
            "queue_depth": self._queue.qsize(),
            "in_flight": in_flight,
            "requests": counters,
            "errors": errors,
        }
        latency: Dict[str, float] = {
            f"{key}_ms": round(value * 1000.0, 3)
            for key, value in percentiles(latencies).items()
        }
        latency["mean_ms"] = round(
            (sum(latencies) / len(latencies) * 1000.0) if latencies else 0.0, 3
        )
        latency["count"] = len(latencies)
        stats["latency"] = latency
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        return stats

    def metrics_instruments(self) -> List[Instrument]:
        """The pool's instruments with point-in-time gauges refreshed."""
        self._queue_depth_gauge.set(self._queue.qsize())
        with self._lock:
            in_flight = self._in_flight
        self._in_flight_gauge.set(in_flight)
        return self.metrics.instruments()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:
                return
            if ticket.answered:  # timed out (or refused) while queued
                self._abandoned.inc()
                continue
            with self._lock:
                self._in_flight += 1
            try:
                response, cache_hit = self._solve(ticket.request, ticket.rid)
            except Exception as exc:  # a bug must answer, not kill the worker
                response, cache_hit = (
                    protocol.error_response(
                        ticket.rid, protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
                    ),
                    False,
                )
            # Count BEFORE delivering: a client that just read its response
            # must see it reflected in the very next stats snapshot.  If the
            # deadline monitor won the respond race, move the count over to
            # "abandoned" after the fact (the client saw a timeout error).
            ok = bool(response.get("ok"))
            with self._lock:
                self._in_flight -= 1
                self._forget(ticket)
            if ok:
                self._served.inc()
                if cache_hit:
                    self._cache_hits.inc()
                self._latency.observe(time.monotonic() - ticket.enqueued)
            else:
                self._errors[response["error"]["code"]].inc()
            if not ticket.respond(response):
                self._abandoned.inc()
                if ok:
                    self._served.inc(-1)
                    if cache_hit:
                        self._cache_hits.inc(-1)
                else:
                    self._errors[response["error"]["code"]].inc(-1)

    def _solve(self, request: SolveRequest, rid: Any) -> Tuple[Dict[str, Any], bool]:
        """Execute one request against the shared cache; returns (response, hit)."""
        with _trace.span("serve_request", scheduler=request.scheduler) as tspan:
            response, cache_hit = self._solve_inner(request, rid)
            if _trace.enabled():
                tspan.annotate(cached=cache_hit, ok=bool(response.get("ok")))
            return response, cache_hit

    def _solve_inner(self, request: SolveRequest, rid: Any) -> Tuple[Dict[str, Any], bool]:
        problem = self._problem_key(request)
        signature = self._signature_of(problem)
        item: Optional[WorkItem] = None
        try:
            # Seed and time budget fold into the canonical spec string, so
            # the cache key's seed slot stays empty — two requests with the
            # same canonical spec are the same computation.
            scheduler = canonical_scheduler_spec(
                request.scheduler, seed=request.seed, time_budget=request.time_budget
            )
            if signature is None:  # a memoized problem is looked up unbuilt
                item = WorkItem.from_request(request, keep_schedule=True)
        except REQUEST_BUILD_FAILURES as exc:
            return self._invalid_spec(request, rid, exc), False
        if self.cache is not None and item is not None:
            from ..portfolio.features import instance_signature

            signature = instance_signature(item.dag, item.machine)
            self._remember_signature(problem, signature)
        if self.cache is not None and signature is not None:
            entry = self.cache.get(signature, scheduler, None)
            if entry is not None and entry.result is not None:
                return protocol.result_response(rid, entry.result.to_dict(), cached=True), True
        if item is None:  # a memoized problem that missed: build it now
            try:
                item = WorkItem.from_request(request, keep_schedule=True)
            except REQUEST_BUILD_FAILURES as exc:
                return self._invalid_spec(request, rid, exc), False
        outcome = execute_work_item_tolerant(item)
        result = to_solve_result(item, outcome)
        if not outcome.valid:
            return (
                protocol.error_response(
                    rid, protocol.E_SCHEDULER, outcome.error, result=result.to_dict()
                ),
                False,
            )
        if (
            self.cache is not None
            and signature is not None
            and result.deterministic
            and outcome.schedule is not None
        ):
            self.cache.put(
                signature,
                item.scheduler,
                None,
                result,
                outcome.schedule,
                chosen=item.scheduler,
            )
        return protocol.result_response(rid, result.to_dict(), cached=False), False

    @staticmethod
    def _invalid_spec(request: SolveRequest, rid: Any, exc: Exception) -> Dict[str, Any]:
        return protocol.error_response(
            rid,
            protocol.E_INVALID_SPEC,
            str(exc),
            result=broken_request_result(request, exc).to_dict(),
        )

    def _problem_key(self, request: SolveRequest) -> Optional[str]:
        """Digest of the canonical problem JSON, or ``None`` if not memoizable.

        Only a pure problem (:attr:`repro.spec.DagSpec.pure`) is: any other
        builds a fresh DAG per request — a seedless generator draws a new
        one, a hyperDAG file may have been rewritten — which must never be
        answered from another build's cache entry.
        """
        if self.cache is None or not request.spec.dag.pure:
            return None
        text = json.dumps(request.spec.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def _signature_of(self, problem: Optional[str]) -> Optional[str]:
        """The memoized instance signature of a problem key, if any."""
        if problem is None:
            return None
        with self._lock:
            signature = self._signatures.get(problem)
            if signature is not None:
                self._signatures.move_to_end(problem)
            return signature

    def _remember_signature(self, problem: Optional[str], signature: str) -> None:
        if problem is None:
            return
        with self._lock:
            self._signatures[problem] = signature
            if len(self._signatures) > self.SIGNATURE_MEMO:
                self._signatures.popitem(last=False)

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def _monitor_deadlines(self) -> None:
        while not self._stopped.wait(self.MONITOR_INTERVAL):
            now = time.monotonic()
            with self._lock:
                expired = [
                    t for t in self._watched if t.deadline is not None and now >= t.deadline
                ]
                self._watched = [t for t in self._watched if t not in expired and not t.answered]
            for ticket in expired:
                waited = now - ticket.enqueued
                # Count BEFORE delivering (mirror of the worker path): a
                # client reading stats right after its timeout error must
                # see it counted.  Undo if the worker answered first.
                self._errors[protocol.E_TIMEOUT].inc()
                if not ticket.respond(
                    protocol.error_response(
                        ticket.rid,
                        protocol.E_TIMEOUT,
                        f"request timed out after {waited:.3f}s",
                    )
                ):
                    self._errors[protocol.E_TIMEOUT].inc(-1)

    def _forget(self, ticket: Ticket) -> None:
        """Drop a finished ticket from the deadline watch list (lock held)."""
        if ticket.deadline is not None:
            try:
                # Every caller already holds self._lock (see the docstring);
                # taking it here again would deadlock.
                self._watched.remove(ticket)  # repro-check: disable=lock-discipline
            except ValueError:
                pass

    def _refuse(self, ticket: Ticket, code: str, message: str) -> None:
        if ticket.respond(protocol.error_response(ticket.rid, code, message)):
            self._errors[code].inc()
            with self._lock:
                self._forget(ticket)
