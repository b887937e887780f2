"""Command-line interface: ``python -m repro``.

Sixteen subcommands cover the workflows a downstream user needs most
often — one-shot solving (``schedule``, ``batch``), the persistent solve
service (``serve``, ``submit``), the distributed queue runner (``enqueue``,
``worker``, ``collect``), solution-cache telemetry (``cache-stats``),
portfolio/registry introspection (``portfolio-explain``,
``list-schedulers``), instance tooling (``repro``, ``generate``, ``info``),
observability (``metrics``, ``trace-view``; the solving commands also take
``--trace FILE``), and the repo's own static analysis (``check``):

``schedule``
    Schedule a computational DAG (a hyperDAG file, a generated instance, or
    a ``--spec`` JSON problem/request file) on a described machine with any
    registered scheduler and print the cost breakdown, optionally comparing
    several schedulers side by side (``--schedulers a,b,c`` — parameterized
    spec strings like ``"hc(max_moves=50)"`` work; run in parallel with
    ``--jobs N``).  ``--cache-dir`` enables the portfolio solution cache.

``batch``
    Solve a JSONL file of :class:`~repro.spec.SolveRequest` objects through
    the :mod:`repro.api` facade, one result line per request (in request
    order, bytewise reproducible for deterministic schedulers), optionally
    on several worker processes with a resumable checkpoint.  A request
    whose scheduler fails yields an invalid result line instead of aborting
    the batch; a pass/fail summary goes to stderr and the exit status is
    nonzero when any request failed.

``serve``
    Run the persistent solve daemon (:mod:`repro.serve`): a line-delimited
    JSON TCP service with a bounded request queue (``--queue-size``,
    queue-full backpressure), a worker pool (``--jobs``), one shared warm
    solution cache (``--cache-dir``), optional per-request timeouts
    (``--timeout``), and a stats/health endpoint.  SIGTERM/SIGINT drain
    in-flight requests before exit.

``submit``
    Solve a JSONL file of requests against a running daemon
    (``--addr host:port``) through the thin client, streaming result lines
    in request order; output and exit status mirror ``batch``.

``enqueue``
    Split a JSONL file of solve requests into task files on a shared
    directory queue (:mod:`repro.distrib`), one atomic claimable envelope
    per request, and write an ordered batch manifest for ``collect``.

``worker``
    Drain a directory queue: claim tasks via atomic rename, solve them
    through the same tolerant path as ``batch`` (sharing the solution cache
    via ``--cache-dir`` / ``REPRO_CACHE_DIR``), write results next to the
    requests, retry machinery failures and dead-letter them after
    ``--max-attempts``.  Exits when the queue is drained (or keeps polling
    with ``--max-idle``).

``collect``
    Assemble the results of an enqueued batch (by manifest) into a JSONL
    file in request order — byte-identical to what ``repro batch`` would
    have produced for deterministic schedulers; optionally ``--wait`` for
    workers that are still solving.

``cache-stats``
    Telemetry of a solution cache directory (entries, bytes, shards, LRU
    occupancy, per-session hit/miss counters) — or, with ``--addr``, the
    live counters of a running daemon's shared cache.

``portfolio-explain``
    Show what the portfolio subsystem sees for an instance: the extracted
    feature vector, the selection rule that fires, the chosen scheduler
    spec, the canonical instance signature and (with a cache) whether the
    solution is already cached.

``list-schedulers``
    Print the registry: every registered scheduler with its metadata
    (label, description, deterministic / NUMA-aware flags, parameters).

``metrics``
    Scrape a running solve daemon (``--addr host:port``) and print its
    metrics registry in Prometheus text exposition format — request /
    cache / error counters, latency quantiles, queue depth and uptime.
    The same payload is available programmatically through the ``metrics``
    wire op (:meth:`repro.serve.client.ServiceClient.metrics`).

``trace-view``
    Summarize a ``repro-trace/1`` JSONL file written by ``--trace``: the
    per-stage wall-time breakdown (total and self time), the slowest
    individual spans, and cache hit/miss attribution.

``repro``
    Regenerate one table or figure of the paper's evaluation by name
    (``table1`` .. ``table14``, ``fig5`` .. ``fig7``) on laptop-scale
    datasets, optionally on several worker processes (``--jobs N``).

``generate``
    Generate a computational DAG with one of the paper's generators and
    write it to a hyperDAG file.

``info``
    Print structural statistics of a hyperDAG file.

``check``
    Run the project-specific static-analysis suite (:mod:`repro.checks`):
    determinism lint, serve lock-discipline, registry/protocol contract
    audits, frozen-spec mutation.  Findings can be suppressed per line
    (``# repro-check: disable=<rule>``) or grandfathered in the committed
    baseline file.

Examples::

    python -m repro generate --kind spmv --size 12 --out spmv.hdag
    python -m repro info spmv.hdag
    python -m repro schedule spmv.hdag -P 4 -g 3 -l 5 --schedulers framework,cilk,hdagg --jobs 3
    python -m repro schedule --kind cg --size 8 -P 8 -g 1 -l 5 --delta 3 --scheduler multilevel
    python -m repro schedule --kind spmv --size 10 -P 4 --memory-bound 40 \
        --schedulers "greedy-mem,hc(init=greedy-mem)"
    python -m repro schedule --spec request.json
    python -m repro schedule --kind spmv --size 10 -P 4 --scheduler portfolio --cache-dir .cache
    python -m repro portfolio-explain --kind cg --size 8 -P 8 --delta 3
    python -m repro list-schedulers
    python -m repro batch requests.jsonl --jobs 4 --out results.jsonl
    python -m repro serve --port 7464 --jobs 4 --queue-size 128 --cache-dir .cache
    python -m repro submit requests.jsonl --addr 127.0.0.1:7464 --out results.jsonl
    python -m repro cache-stats --cache-dir .cache
    python -m repro cache-stats --addr 127.0.0.1:7464
    python -m repro enqueue requests.jsonl --queue /shared/q --manifest batch1
    python -m repro worker /shared/q --cache-dir /shared/cache
    python -m repro collect /shared/q batch1 --wait --out results.jsonl
    python -m repro repro table1 --jobs 4
    python -m repro repro --list
    python -m repro schedule --kind cg --size 8 -P 8 --scheduler multilevel --trace trace.jsonl
    python -m repro trace-view trace.jsonl --top 5
    python -m repro metrics --addr 127.0.0.1:7464
    python -m repro check src tests benchmarks
    python -m repro check --format json --rules determinism,lock-discipline
    python -m repro --version

Each subcommand is declared exactly once, in :func:`build_parser`: its
subparser carries its handler (``set_defaults(run=...)``), and :func:`main`
parses, opens the ``--trace`` scope named after the command, installs
``--cache-dir`` as the process default cache until the handler returns, and
runs the handler.  ``check`` keeps only a bare entry there: its options
belong to :mod:`repro.checks.runner`, which receives the raw arguments.

The inventory above is doctested against the parser itself, so this
docstring cannot drift silently when a subcommand is added::

    >>> from repro.cli import subcommands
    >>> for name in subcommands():
    ...     print(name)
    batch
    cache-stats
    check
    collect
    enqueue
    generate
    info
    list-schedulers
    metrics
    portfolio-explain
    repro
    schedule
    serve
    submit
    trace-view
    worker
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .experiments.runner import REQUEST_BUILD_FAILURES
from .graphs.dag import ComputationalDAG
from .model.machine import BspMachine
from .registry import (
    available_schedulers,
    canonical_scheduler_spec,
    make_scheduler,
    split_scheduler_list,
)
from .spec import ProblemSpec, SolveRequest, SpecError

__all__ = ["main", "build_parser", "subcommands"]

_T = TypeVar("_T")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _or_exit(build: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """``build(*args, **kwargs)``, turning a bad-input failure (the same
    ``ValueError``/``OSError`` family a batch folds into an invalid result)
    into a one-line ``SystemExit`` instead of a traceback."""
    try:
        return build(*args, **kwargs)
    except REQUEST_BUILD_FAILURES as exc:
        raise SystemExit(str(exc)) from exc


def _load_dag(args: argparse.Namespace) -> ComputationalDAG:
    """The DAG a command names: a hyperDAG file, else a ``--kind`` generator."""
    if getattr(args, "dag_file", None):
        from .graphs.hyperdag import read_hyperdag

        return _or_exit(read_hyperdag, args.dag_file)
    if not args.kind:
        raise SystemExit("either a hyperDAG file, --kind, or --spec must be given")
    from .graphs.coarse import COARSE_GRAINED_GENERATORS, generate_coarse_grained
    from .graphs.fine import FINE_GRAINED_GENERATORS, generate_fine_grained

    if args.kind in FINE_GRAINED_GENERATORS:
        kwargs = {"n": args.size, "q": args.density, "seed": args.seed}
        if args.kind != "spmv":
            kwargs["k"] = args.iterations
        return _or_exit(generate_fine_grained, args.kind, **kwargs)
    if args.kind in COARSE_GRAINED_GENERATORS:
        return _or_exit(generate_coarse_grained, args.kind, iterations=args.iterations)
    raise SystemExit(
        f"unknown DAG kind {args.kind!r}; fine-grained: {sorted(FINE_GRAINED_GENERATORS)}, "
        f"coarse-grained: {sorted(COARSE_GRAINED_GENERATORS)}"
    )


def _load_problem(
    args: argparse.Namespace,
) -> Tuple[ComputationalDAG, BspMachine, Optional[SolveRequest]]:
    """The instance of ``schedule``/``portfolio-explain``: a ``--spec`` file,
    or a DAG plus the machine flags.  The third item is the SolveRequest when
    the ``--spec`` file holds one."""
    if not args.spec:
        return _load_dag(args), _or_exit(_build_machine, args), None
    loaded = _load_spec_file(args.spec)
    request = loaded if isinstance(loaded, SolveRequest) else None
    problem = loaded.spec if isinstance(loaded, SolveRequest) else loaded
    return _or_exit(problem.build_dag), _or_exit(problem.build_machine), request


def _load_spec_file(path: str) -> "SolveRequest | ProblemSpec":
    """Read a ``--spec`` JSON file: a SolveRequest or a bare ProblemSpec."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        if isinstance(data, dict) and "spec" in data:
            return SolveRequest.from_dict(data)
        return ProblemSpec.from_dict(data)
    except (SpecError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid spec file {path!r}: {exc}") from exc


def _build_machine(args: argparse.Namespace) -> BspMachine:
    if args.delta is not None:
        machine = BspMachine.hierarchical(
            P=args.processors, delta=args.delta, g=args.g, l=args.latency
        )
    else:
        machine = BspMachine(P=args.processors, g=args.g, l=args.latency)
    if args.memory_bound is not None:
        machine = machine.with_memory_bound(args.memory_bound)
    return machine


def _add_problem_arguments(parser: argparse.ArgumentParser) -> None:
    """The instance arguments read by :func:`_load_problem`."""
    parser.add_argument("dag_file", nargs="?", help="hyperDAG file (omit to use --kind or --spec)")
    _add_generator_arguments(parser, require_kind=False)
    parser.add_argument("-P", "--processors", type=int, default=4, help="number of processors")
    parser.add_argument("-g", type=float, default=1.0, help="per-unit communication cost")
    parser.add_argument("-l", "--latency", type=float, default=5.0, help="per-superstep latency")
    parser.add_argument(
        "--delta",
        type=float,
        default=None,
        help="NUMA factor of a binary-tree hierarchy (omit for a uniform machine)",
    )
    parser.add_argument(
        "--memory-bound",
        type=float,
        default=None,
        metavar="M",
        help="per-processor memory bound of the memory-constrained model "
        "(use memory-aware schedulers such as greedy-mem, hc, multilevel)",
    )
    parser.add_argument(
        "--spec",
        metavar="FILE",
        help="JSON problem spec or solve request (overrides the DAG/machine flags)",
    )


def _add_generator_arguments(parser: argparse.ArgumentParser, require_kind: bool) -> None:
    parser.add_argument(
        "--kind",
        required=require_kind,
        help="generator to use (spmv, exp, cg, knn, pagerank, bicgstab, ...)",
    )
    parser.add_argument("--size", type=int, default=10, help="matrix dimension for fine-grained kinds")
    parser.add_argument("--iterations", type=int, default=3, help="iteration count (exp/cg/knn/coarse kinds)")
    parser.add_argument("--density", type=float, default=0.25, help="nonzero probability of the random matrix")
    parser.add_argument("--seed", type=int, default=0, help="random seed of the generator")


def _add_jobs_argument(parser: argparse.ArgumentParser, workers: str, default: int = 1) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=default,
        metavar="N",
        help=f"{workers} (default: {default})",
    )


def _add_addr_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--addr",
        default="127.0.0.1:7464",
        metavar="HOST:PORT",
        help="address of the solve daemon (default: 127.0.0.1:7464)",
    )


def _add_timing_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock seconds in every result (non-deterministic output)",
    )


def _add_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="directory of the content-addressed solution cache used by "
        "portfolio schedulers (defaults to $REPRO_CACHE_DIR; omit to disable)",
    )


@contextlib.contextmanager
def _cache_dir_scope(args: argparse.Namespace) -> Iterator[None]:
    """Install ``--cache-dir`` as the process default portfolio cache while
    the command runs, and put the previous default back when it returns."""
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        yield
        return
    from .portfolio.cache import set_default_cache_dir

    previous = set_default_cache_dir(cache_dir)
    try:
        yield
    finally:
        set_default_cache_dir(previous)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a repro-trace/1 JSONL span trace of this run to FILE "
        "(summarize with `repro trace-view`; results are unaffected)",
    )


@contextlib.contextmanager
def _trace_scope(args: argparse.Namespace, root: str) -> Iterator[None]:
    """Trace the command into ``args.trace`` when given; no-op otherwise.

    The trace file is written even when the command exits with an error, so
    a failed run can still be inspected with ``repro trace-view``.
    """
    trace_file = getattr(args, "trace", None)
    if not trace_file:
        yield
        return
    from .obs import trace as _trace

    tracer = _trace.Tracer()
    previous = _trace.install(tracer)
    try:
        with tracer.span(root):
            yield
    finally:
        _trace.install(previous)
        count = tracer.write(trace_file)
        print(f"wrote trace of {count} span(s) to {trace_file}", file=sys.stderr)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BSP+NUMA DAG scheduling (reproduction of Papp et al., SPAA 2024)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, run: Callable[[argparse.Namespace], int], help: str
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    # schedule ----------------------------------------------------------
    p_sched = command("schedule", _command_schedule, "schedule a DAG and print the cost breakdown")
    _add_problem_arguments(p_sched)
    p_sched.add_argument(
        "--scheduler",
        default="framework",
        help=f"scheduler to run (one of: {', '.join(available_schedulers())})",
    )
    p_sched.add_argument(
        "--compare",
        nargs="*",
        default=[],
        metavar="SCHEDULER",
        help="additional schedulers to run for comparison",
    )
    p_sched.add_argument(
        "--schedulers",
        metavar="A,B,C",
        help="comma-separated scheduler list (overrides --scheduler/--compare; "
        "the first entry is the primary scheduler)",
    )
    _add_jobs_argument(p_sched, "worker processes used to run the schedulers")
    p_sched.add_argument("--gantt", action="store_true", help="print a text Gantt view of the schedule")
    p_sched.add_argument("--out", help="write the scheduled DAG assignment to this file (CSV)")
    _add_cache_argument(p_sched)
    _add_trace_argument(p_sched)

    # batch -------------------------------------------------------------
    p_batch = command(
        "batch", _command_batch, "solve a JSONL file of solve requests through the API facade"
    )
    p_batch.add_argument("requests_file", help="JSONL file with one SolveRequest per line")
    _add_jobs_argument(p_batch, "worker processes used to solve the requests")
    p_batch.add_argument(
        "--out",
        metavar="FILE",
        help="write results to this JSONL file (default: stdout)",
    )
    p_batch.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="append finished requests to this JSONL checkpoint as they complete",
    )
    p_batch.add_argument(
        "--resume",
        action="store_true",
        help="skip requests whose results are already in the checkpoint",
    )
    _add_timing_argument(p_batch)
    _add_cache_argument(p_batch)
    _add_trace_argument(p_batch)

    # serve --------------------------------------------------------------
    p_serve = command(
        "serve",
        _command_serve,
        "run the persistent solve daemon (line-delimited JSON over TCP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="interface to bind (default: 127.0.0.1)")
    p_serve.add_argument(
        "--port",
        type=int,
        default=7464,
        help="TCP port to listen on (0 picks an ephemeral port; default: 7464)",
    )
    _add_jobs_argument(p_serve, "worker threads executing solve requests", default=2)
    p_serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        metavar="N",
        help="bound of the request queue; a full queue answers queue-full "
        "with a retry-after hint instead of buffering (default: 64)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request timeout (requests may override; "
        "default: none)",
    )
    _add_cache_argument(p_serve)
    _add_trace_argument(p_serve)

    # submit -------------------------------------------------------------
    p_submit = command(
        "submit",
        _command_submit,
        "solve a JSONL file of solve requests on a running solve daemon",
    )
    p_submit.add_argument("requests_file", help="JSONL file with one SolveRequest per line")
    _add_addr_argument(p_submit)
    p_submit.add_argument(
        "--out",
        metavar="FILE",
        help="write results to this JSONL file (default: stream to stdout)",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request timeout enforced by the daemon (default: none)",
    )
    _add_timing_argument(p_submit)

    # metrics ------------------------------------------------------------
    p_metrics = command(
        "metrics",
        _command_metrics,
        "scrape a running solve daemon's metrics (Prometheus text format)",
    )
    _add_addr_argument(p_metrics)

    # enqueue ------------------------------------------------------------
    p_enq = command(
        "enqueue",
        _command_enqueue,
        "enqueue a JSONL file of solve requests on a shared directory queue",
    )
    p_enq.add_argument("requests_file", help="JSONL file with one SolveRequest per line")
    p_enq.add_argument(
        "--queue",
        required=True,
        metavar="DIR",
        help="queue directory (shared between producers and workers)",
    )
    p_enq.add_argument(
        "--manifest",
        metavar="NAME",
        default=None,
        help="manifest name for `repro collect` (default: a fresh batch id)",
    )

    # worker -------------------------------------------------------------
    p_worker = command(
        "worker",
        _command_worker,
        "drain a directory queue: claim, solve, answer (pull-based worker)",
    )
    p_worker.add_argument("queue_dir", help="queue directory to drain")
    p_worker.add_argument(
        "--max-idle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep polling this long after the queue empties "
        "(default: 0 — exit as soon as a scan finds no work)",
    )
    p_worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="sleep between idle scans (default: 0.2)",
    )
    p_worker.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="dead-letter a task after N failed attempts (default: 3)",
    )
    p_worker.add_argument(
        "--recover-claimed",
        action="store_true",
        help="requeue stale claims of crashed workers before draining "
        "(only safe when no other worker is live)",
    )
    _add_cache_argument(p_worker)
    _add_trace_argument(p_worker)

    # collect ------------------------------------------------------------
    p_collect = command(
        "collect",
        _command_collect,
        "assemble the results of an enqueued batch into ordered JSONL",
    )
    p_collect.add_argument("queue_dir", help="queue directory of the batch")
    p_collect.add_argument("manifest", help="manifest name printed by `repro enqueue`")
    p_collect.add_argument(
        "--out",
        metavar="FILE",
        help="write results to this JSONL file (default: stdout)",
    )
    p_collect.add_argument(
        "--wait",
        action="store_true",
        help="poll until every request of the batch is answered or dead-lettered",
    )
    p_collect.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up waiting after this long (with --wait)",
    )
    _add_timing_argument(p_collect)

    # cache-stats --------------------------------------------------------
    p_cache = command(
        "cache-stats",
        _command_cache_stats,
        "print solution-cache telemetry (a directory, or a live daemon)",
    )
    p_cache.add_argument(
        "--addr",
        default=None,
        metavar="HOST:PORT",
        help="query a running solve daemon instead of walking a directory",
    )
    _add_cache_argument(p_cache)

    # portfolio-explain --------------------------------------------------
    p_explain = command(
        "portfolio-explain",
        _command_portfolio_explain,
        "show the features, selection rule and cache status of an instance",
    )
    _add_problem_arguments(p_explain)
    p_explain.add_argument(
        "--portfolio",
        metavar="SPEC",
        default="portfolio",
        help="portfolio spec string to explain (default: portfolio)",
    )
    _add_cache_argument(p_explain)

    # list-schedulers ----------------------------------------------------
    command(
        "list-schedulers",
        _command_list_schedulers,
        "print every registered scheduler with its registry metadata",
    )

    # repro -------------------------------------------------------------
    p_repro = command(
        "repro", _command_repro, "regenerate a table/figure of the paper's evaluation"
    )
    p_repro.add_argument(
        "target",
        nargs="?",
        help="table1..table14 or fig5..fig7 (see --list)",
    )
    p_repro.add_argument("--list", action="store_true", help="list the available targets")
    p_repro.add_argument(
        "--scale",
        default="smoke",
        choices=("smoke", "reduced", "paper"),
        help="dataset scale (default: smoke, laptop friendly)",
    )
    _add_jobs_argument(p_repro, "worker processes of the experiment engine")
    p_repro.add_argument("--seed", type=int, default=7, help="dataset generation seed")
    p_repro.add_argument("--markdown", action="store_true", help="print tables as markdown")

    # generate ----------------------------------------------------------
    p_gen = command("generate", _command_generate, "generate a computational DAG and write a hyperDAG file")
    _add_generator_arguments(p_gen, require_kind=True)
    p_gen.add_argument("--out", required=True, help="output hyperDAG file")

    # info ---------------------------------------------------------------
    p_info = command("info", _command_info, "print statistics of a hyperDAG file")
    p_info.add_argument("dag_file", help="hyperDAG file")

    # trace-view ---------------------------------------------------------
    p_tview = command(
        "trace-view",
        _command_trace_view,
        "summarize a repro-trace/1 JSONL file written by --trace",
    )
    p_tview.add_argument("trace_file", help="trace file written by a --trace run")
    p_tview.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="number of slowest spans to list (default: 10)",
    )

    # check --------------------------------------------------------------
    # A bare entry for `repro --help`: main() hands the raw arguments to
    # repro.checks.runner, whose parser owns the options (and --help).
    sub.add_parser(
        "check",
        help="run the project-specific static-analysis suite (repro.checks)",
    )

    return parser


def subcommands() -> List[str]:
    """Sorted names of every registered subcommand (doctested in the module
    docstring, so the prose inventory cannot drift from the parser)."""
    parser = build_parser()
    assert parser._subparsers is not None
    return sorted(
        choice
        for action in parser._subparsers._group_actions
        for choice in action.choices or ()
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _command_schedule(args: argparse.Namespace) -> int:
    from .experiments.runner import schedule_many
    from .model.inspect import describe_schedule, schedule_to_text_gantt

    dag, machine, request = _load_problem(args)
    default_scheduler = args.scheduler
    if request is not None:
        # Canonicalize exactly like the batch facade does, so the
        # request's seed / time budget are not silently dropped.
        default_scheduler = _or_exit(
            canonical_scheduler_spec,
            request.scheduler,
            seed=request.seed,
            time_budget=request.time_budget,
        )
    if args.schedulers:
        names = _or_exit(split_scheduler_list, args.schedulers)
        if not names:
            raise SystemExit("--schedulers needs at least one scheduler name")
    else:
        names = [default_scheduler] + list(args.compare)
    for name in names:  # fail on a bad spec before any solving starts
        _or_exit(make_scheduler, name)
    results = schedule_many(dag, machine, names, jobs=args.jobs)

    primary_name, primary = results[0]
    print(describe_schedule(primary, name=f"{primary_name} schedule"))
    if args.gantt:
        print()
        print(schedule_to_text_gantt(primary))

    if len(results) > 1:
        print("\ncomparison (total cost, lower is better):")
        baseline_cost = results[0][1].cost()
        for name, schedule in results:
            cost = schedule.cost()
            rel = cost / baseline_cost if baseline_cost else float("nan")
            print(f"  {name:<16} {cost:>12.1f}   ({rel:.2f}x of {primary_name})")

    if args.out:
        with open(args.out, "w") as handle:
            handle.write("node,processor,superstep\n")
            for v in range(dag.n):
                handle.write(f"{v},{int(primary.proc[v])},{int(primary.step[v])}\n")
        print(f"\nwrote assignment of {dag.n} nodes to {args.out}")
    return 0


def _load_request_file(path: str) -> list:
    from . import api

    try:
        requests = api.load_requests(path)
    except (OSError, SpecError) as exc:
        raise SystemExit(str(exc)) from exc
    if not requests:
        raise SystemExit(f"no solve requests found in {path!r}")
    return requests


def _batch_summary(results) -> int:
    """Pass/fail summary to stderr; the shared exit status of batch/submit.

    A request whose scheduler failed (or returned an invalid schedule) must
    be visible in the exit status: report a summary and exit nonzero when
    anything failed, so scripted pipelines notice.
    """
    failed = [
        (k, result) for k, result in enumerate(results, start=1) if not result.valid
    ]
    print(
        f"batch summary: {len(results) - len(failed)}/{len(results)} ok, "
        f"{len(failed)} invalid",
        file=sys.stderr,
    )
    for lineno, result in failed:
        print(
            f"  request {lineno}: {result.scheduler} on {result.dag_name}: "
            f"{result.scheduler_description or 'invalid schedule'}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _command_batch(args: argparse.Namespace) -> int:
    from . import api

    requests = _load_request_file(args.requests_file)
    results = api.solve_many(
        requests,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        tolerant=True,
    )
    api.write_results(results, args.out or sys.stdout, timing=args.timing)
    if args.out:
        print(f"solved {len(results)} request(s); wrote {args.out}", file=sys.stderr)
    return _batch_summary(results)


def _command_serve(args: argparse.Namespace) -> int:
    from .serve.server import ServeConfig, SolveServer

    # --cache-dir is both the daemon's shared cache and the process default
    # (installed by main), so portfolio requests solved by the workers warm
    # the same directory.
    server = SolveServer(
        ServeConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            queue_size=args.queue_size,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
        )
    )
    try:
        host, port = server.start()
    except OSError as exc:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    cache = str(server.cache.root) if server.cache is not None else "disabled"
    print(
        f"repro solve daemon listening on {host}:{port} "
        f"(workers={server.pool.jobs}, queue-size={server.pool.queue_size}, cache={cache})",
        flush=True,
    )
    server.run_forever()
    stats = server.stats()
    requests = stats["requests"]
    print(
        f"drained and stopped: served {requests['served']} request(s), "
        f"{requests['cache_hits']} cache hit(s), uptime {stats['uptime_s']}s",
        file=sys.stderr,
    )
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from .serve.client import ServeError, connect

    requests = _load_request_file(args.requests_file)
    try:
        client = connect(args.addr)
    except ServeError as exc:
        raise SystemExit(str(exc)) from exc

    # Stream result lines in request order as they arrive: results are
    # buffered only while an earlier request is still in flight.
    handle = open(args.out, "w") if args.out else sys.stdout
    buffered: dict = {}
    cursor = [0]

    def emit(index: int, result) -> None:
        buffered[index] = result
        while cursor[0] in buffered:
            handle.write(buffered.pop(cursor[0]).to_json(timing=args.timing) + "\n")
            handle.flush()
            cursor[0] += 1

    try:
        results = client.solve_many(
            requests, timeout=args.timeout, tolerant=True, on_result=emit
        )
    except ServeError as exc:
        raise SystemExit(str(exc)) from exc
    finally:
        client.close()
        if args.out:
            handle.close()
    if args.out:
        print(
            f"solved {len(results)} request(s); wrote {args.out}",
            file=sys.stderr,
        )
    return _batch_summary(results)


def _command_cache_stats(args: argparse.Namespace) -> int:
    if args.addr:
        from .serve.client import ServeError, connect

        try:
            with connect(args.addr) as client:
                stats = client.stats(disk=True)
        except ServeError as exc:
            raise SystemExit(str(exc)) from exc
        cache = stats.get("cache")
        if not cache:
            print(f"daemon at {args.addr}: cache disabled")
            return 0
        print(f"solution cache of the daemon at {args.addr} (uptime {stats['uptime_s']}s):")
    else:
        from .portfolio.cache import SolutionCache, default_cache_dir

        root = args.cache_dir or default_cache_dir()
        if not root:
            raise SystemExit(
                "no cache directory: pass --cache-dir, set REPRO_CACHE_DIR, "
                "or query a running daemon with --addr"
            )
        solution_cache = SolutionCache(root)
        cache = {"dir": str(solution_cache.root)}
        cache.update(solution_cache.disk_stats())
        cache.update(solution_cache.stats())
        print("solution cache telemetry:")
    order = (
        "dir",
        "entries",
        "bytes",
        "shards",
        "lru_entries",
        "lru_capacity",
        "hits",
        "misses",
        "stores",
    )
    keys = [k for k in order if k in cache] + sorted(set(cache) - set(order))
    width = max(len(k) for k in keys)
    for key in keys:
        print(f"  {key.ljust(width)} : {cache[key]}")
    return 0


def _command_enqueue(args: argparse.Namespace) -> int:
    from .distrib.queue import DirectoryQueue

    requests = _load_request_file(args.requests_file)
    queue = DirectoryQueue(args.queue)
    manifest = args.manifest
    ids = queue.enqueue(requests)
    if manifest is None:
        manifest = ids[0].rsplit("-", 1)[0]  # the fresh batch token
    queue.write_manifest(manifest, ids)
    print(
        f"enqueued {len(ids)} request(s) on {queue.root} (manifest: {manifest})",
        file=sys.stderr,
    )
    print(manifest)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from .distrib.queue import DEFAULT_MAX_ATTEMPTS, DirectoryQueue
    from .distrib.worker import run_worker

    queue = DirectoryQueue(args.queue_dir)
    if args.recover_claimed:
        recovered = queue.recover_claimed()
        if recovered:
            print(f"requeued {len(recovered)} stale claim(s)", file=sys.stderr)
    stats = run_worker(
        args.queue_dir,
        max_idle=args.max_idle,
        poll_interval=args.poll_interval,
        max_attempts=(
            args.max_attempts if args.max_attempts is not None else DEFAULT_MAX_ATTEMPTS
        ),
        log=lambda line: print(line, file=sys.stderr),
    )
    print(
        f"worker drained {queue.root}: answered {stats.answered} "
        f"({stats.solved} ok, {stats.invalid} invalid), "
        f"{stats.retried} retried, {stats.dead_lettered} dead-lettered"
    )
    return 0 if not stats.dead_lettered else 1


def _command_collect(args: argparse.Namespace) -> int:
    import time

    from . import api
    from .distrib.queue import DirectoryQueue, QueueError

    queue = DirectoryQueue(args.queue_dir)
    try:
        ids = queue.read_manifest(args.manifest)
    except QueueError as exc:
        raise SystemExit(str(exc)) from exc
    deadline = None if args.timeout is None else time.monotonic() + args.timeout
    results: dict = {}
    failed: dict = {}
    while True:
        queue.poll_answers(ids, results, failed)
        missing = [t for t in ids if t not in results and t not in failed]
        if not missing or not args.wait:
            break
        if deadline is not None and time.monotonic() > deadline:
            raise SystemExit(
                f"collect timed out: {len(missing)} of {len(ids)} request(s) unanswered"
            )
        time.sleep(0.2)
    if missing:
        raise SystemExit(
            f"{len(missing)} of {len(ids)} request(s) unanswered "
            "(workers still running? pass --wait)"
        )
    if failed:
        lines = [f"  {task_id}: {error}" for task_id, error in sorted(failed.items())]
        raise SystemExit(
            f"{len(failed)} request(s) dead-lettered:\n" + "\n".join(lines)
        )
    api.write_results([results[t] for t in ids], args.out or sys.stdout, timing=args.timing)
    if args.out:
        print(f"collected {len(ids)} result(s); wrote {args.out}", file=sys.stderr)
    invalid = sum(1 for task_id in ids if not results[task_id].valid)
    print(
        f"collect summary: {len(ids) - invalid}/{len(ids)} ok, {invalid} invalid",
        file=sys.stderr,
    )
    return 1 if invalid else 0


def _command_repro(args: argparse.Namespace) -> int:
    from .experiments.tables import REPRO_TARGETS, reproduce

    if args.list or not args.target:
        width = max(len(name) for name in REPRO_TARGETS)
        for name, description in REPRO_TARGETS.items():
            print(f"{name.ljust(width)} : {description}")
        if not args.list and not args.target:
            print("\npick a target: python -m repro repro <target>")
        return 0
    tables = _or_exit(reproduce, args.target, scale=args.scale, jobs=args.jobs, seed=args.seed)
    for table in tables:
        print(table.to_markdown() if args.markdown else table.to_text())
        print()
    return 0


def _command_list_schedulers(args: argparse.Namespace) -> int:
    from .registry import scheduler_info

    rows = []
    for name in available_schedulers():
        info = scheduler_info(name)
        rows.append(
            (
                name,
                # Of the default configuration: a spec's own limits may differ.
                "yes" if make_scheduler(name).deterministic else "no",
                "yes" if info.numa_aware else "no",
                info.description,
                ", ".join(info.parameters) if info.parameters else "-",
            )
        )
    name_w = max(len(r[0]) for r in rows)
    print(f"{'scheduler'.ljust(name_w)}  det  numa  description")
    for name, det, numa, description, parameters in rows:
        print(f"{name.ljust(name_w)}  {det:<3}  {numa:<4}  {description}")
        print(f"{''.ljust(name_w)}        parameters: {parameters}")
    return 0


def _command_portfolio_explain(args: argparse.Namespace) -> int:
    from .portfolio.features import instance_signature
    from .portfolio.selector import PortfolioScheduler

    dag, machine, _ = _load_problem(args)
    portfolio = _or_exit(make_scheduler, args.portfolio)
    if not isinstance(portfolio, PortfolioScheduler):
        raise SystemExit(f"--portfolio must name a portfolio spec, got {args.portfolio!r}")

    signature = instance_signature(dag, machine)
    chosen, features, rule = portfolio.choose(dag, machine)

    print(f"instance  : {dag.name} ({dag.n} nodes) on {machine.describe()}")
    print(f"signature : {signature}")
    print("\nfeatures:")
    feature_dict = features.to_dict()
    width = max(len(k) for k in feature_dict)
    for key, value in feature_dict.items():
        if isinstance(value, float):
            value = round(value, 4)
        print(f"  {key.ljust(width)} : {value}")
    print(f"\nmode      : {portfolio.mode}")
    if rule is not None:
        print(f"rule      : {rule.name} — {rule.description}")
    print(f"scheduler : {chosen}")
    cache = portfolio.cache
    if cache is None:
        print("cache     : disabled (pass --cache-dir or set REPRO_CACHE_DIR)")
    else:
        entry = cache.get(signature, portfolio.spec_string(), portfolio.seed)
        entry_path = cache.entry_path(signature, portfolio.spec_string(), portfolio.seed)
        if entry is None:
            print(f"cache     : {cache.root} (miss: {entry_path.name})")
        else:
            print(f"cache     : {cache.root} (hit: {entry_path.name})")
            print(f"            solved by {entry.chosen or 'unknown'}", end="")
            if entry.result is not None:
                print(f", total cost {entry.result.total_cost}", end="")
            print()
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from .graphs.analysis import dag_statistics
    from .graphs.hyperdag import write_hyperdag

    dag = _load_dag(args)
    write_hyperdag(dag, args.out, comment=f"generated by `python -m repro generate --kind {args.kind}`")
    stats = dag_statistics(dag)
    print(f"wrote {args.out}: {stats.num_nodes} nodes, {stats.num_edges} edges, depth {stats.depth}")
    return 0


def _command_info(args: argparse.Namespace) -> int:
    from .graphs.analysis import dag_statistics

    dag = _load_dag(args)
    stats = dag_statistics(dag).as_dict()
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        print(f"{key.ljust(width)} : {value}")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from .serve.client import ServeError, ServiceClient

    try:
        with ServiceClient(args.addr, retries=2) as client:
            sys.stdout.write(client.metrics())
    except ServeError as exc:
        raise SystemExit(str(exc)) from exc
    return 0


def _command_trace_view(args: argparse.Namespace) -> int:
    from .obs import read_trace, render_trace_summary, validate_trace

    try:
        records = read_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {args.trace_file!r}: {exc}") from exc
    problems = validate_trace(records)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    print(render_trace_summary(records, top=args.top))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["check"]:
        from .checks.runner import main as check_main

        return check_main(argv[1:])
    args = build_parser().parse_args(argv)
    with _trace_scope(args, args.command), _cache_dir_scope(args):
        return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
