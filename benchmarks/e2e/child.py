"""One workload run in a fresh interpreter, started by ``run.py``.

::

    PYTHONPATH=src python benchmarks/e2e/child.py --workload pipeline-hc \\
        --seed 7 --seconds 10 --trace 0 --work DIR [--smoke]

Prints one JSON object on stdout: the end-to-end measurements (or, with
``--trace 1``, the per-layer ones), the correctness counts and the
problems found.  Compute workloads run in this process through the public
API; the serve workload starts a ``repro serve`` daemon and loads it from
this process, closed loop, one client connection per round.

Both repeat the same requests for the whole run — compute workloads in
passes, the serve workload in rounds — and time a fixed probe between them
(:mod:`speed`).  The child reports its times as measured, together with the
run's mean probe time; ``run.py`` scales them to reference speed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import socket
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import layers
import procs
import workloads
from speed import Speed

from repro import api
from repro.experiments.runner import WorkItem
from repro.obs import trace as obs_trace
from repro.obs.metrics import percentiles
from repro.registry import make_scheduler
from repro.serve import protocol
from repro.spec import DagSpec, ProblemSpec, SolveRequest, SolveResult

ROOT = Path(__file__).resolve().parents[2]
#: Timed passes (or serve rounds) of a run at the least.
MIN_PASSES = 3
#: Requests of a compute run re-solved through the public calls and compared.
COMPUTE_SAMPLES = 2
#: Answers of a serve run re-solved in process and compared with the daemon's.
SERVE_SAMPLES = 20


def encode_result(result: SolveResult) -> bytes:
    """A result exactly as the daemon encodes it inside a response line."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")).encode()


def nearest_rank(values: List[float], point: float) -> float:
    return percentiles(values, (point,))[f"p{point:g}"]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(times: List[float], wall_s: float) -> Dict[str, float]:
    """Timing metrics of a pass (or round) taking ``wall_s``, from its request times."""
    return {
        "wall_s": wall_s,
        "latency_s.p50": nearest_rank(times, 50.0),
        "latency_s.p99": nearest_rank(times, 99.0),
        "throughput_rps": len(times) / sum(times),
    }


def timed_passes(run_pass: Callable[[], Any], seconds: float) -> Tuple[List[float], List[Any]]:
    """Whole passes until about ``seconds`` have elapsed (at least three)."""
    times: List[float] = []
    outcomes: List[Any] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        outcomes.append(run_pass())
        times.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_PASSES and elapsed + statistics.mean(times) / 2 >= seconds:
            return times, outcomes


class Checks:
    """Correctness ledger of one run: every request attempted, every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ----------------------------------------------------------------------
# Compute workloads
# ----------------------------------------------------------------------
def solve_pass(
    requests: List[SolveRequest], checks: Checks, probes: Speed
) -> List[Tuple[Optional[SolveResult], float]]:
    """One pass through ``api.solve``; a raising request is a failed one."""
    out: List[Tuple[Optional[SolveResult], float]] = []
    for request in requests:
        probes.maybe_probe()
        checks.attempted += 1
        began = time.perf_counter()
        try:
            result: Optional[SolveResult] = api.solve(request)
        except Exception as exc:  # counted, reported, and the run goes on
            result = None
            checks.fail(f"{request.spec.dag.name} {request.scheduler}: {type(exc).__name__}: {exc}")
        out.append((result, time.perf_counter() - began))
    return out


def check_decomposed(request: SolveRequest, expected: SolveResult, checks: Checks) -> None:
    """Re-solve through the public calls ``api.solve`` makes and compare.

    Each call runs under its own span, a no-op unless a tracer is installed;
    the schedule must be valid and cost exactly what ``api.solve`` reported.
    """
    with obs_trace.span("spec.build"):
        item = WorkItem.from_request(request)
    with obs_trace.span("registry.make_scheduler"):
        scheduler = make_scheduler(item.scheduler)
    with obs_trace.span(layers.scheduler_span(item.scheduler)):
        schedule = scheduler.schedule(item.dag, item.machine)
    with obs_trace.span("model.validate"):
        errors = schedule.validation_errors()
    with obs_trace.span("model.cost"):
        breakdown = schedule.cost_breakdown()
    got = (breakdown.total, breakdown.work_cost, breakdown.comm_cost, breakdown.latency_cost)
    want = (expected.total_cost, expected.work_cost, expected.comm_cost, expected.latency_cost)
    if errors or tuple(map(float, got)) != want or breakdown.num_supersteps != expected.num_supersteps:
        checks.fail(f"{item.dag.name} {item.scheduler}: re-solved {got} != api.solve {want} {errors[:1]}")


def traced_pass(
    requests: List[SolveRequest], reference: List[Optional[SolveResult]], checks: Checks, probes: Speed
) -> None:
    """One pass of decomposed solves under a :data:`layers.PASS_SPAN` root."""
    with obs_trace.span(layers.PASS_SPAN):
        for request, expected in zip(requests, reference):
            if expected is not None:  # a request api.solve failed is counted already
                probes.maybe_probe()
                checks.attempted += 1
                check_decomposed(request, expected, checks)


def warm_up(requests: List[SolveRequest]) -> None:
    """Untimed: each scheduler once on a tiny DAG (imports, numpy set-up)."""
    tiny = ProblemSpec(
        dag=DagSpec.from_dag(workloads.build_shape(("spmv", {"n": 4}), 0)),
        machine=requests[0].spec.machine,
    )
    for scheduler in dict.fromkeys(r.scheduler for r in requests):
        api.solve(SolveRequest(spec=tiny, scheduler=scheduler))


def run_compute(args: argparse.Namespace) -> Dict[str, Any]:
    requests = workloads.compute_requests(args.workload, args.seed, smoke=args.smoke)
    checks = Checks()
    warm_up(requests)
    probes = Speed()
    if args.trace:
        reference = [result for result, _ in solve_pass(requests, checks, probes)]
        tracer = obs_trace.Tracer()
        previous = obs_trace.install(tracer)
        first_probe = len(probes.times)
        try:
            pass_times, _ = timed_passes(lambda: traced_pass(requests, reference, checks, probes), args.seconds)
        finally:
            obs_trace.install(previous)
        probed_s = sum(probes.times[first_probe:])
        metrics = layers.compute_layers(tracer.records(), len(pass_times), probed_s=probed_s)
        for name in layers.COUNT_METRICS:
            if not float(metrics[name]).is_integer():
                checks.fail(f"{name} differs between identical passes")
        note = f"{len(pass_times)} traced passes of {len(requests)} requests"
        return {"checks": checks, "metrics": metrics, "note": note, "probe_s": probes.probe_s()}

    # Only the first pass's results are kept; every later pass is compared
    # with them as it ends, so memory does not grow with the pass count.
    first: List[Optional[SolveResult]] = []
    first_json: List[Optional[str]] = []
    request_times: List[List[float]] = [[] for _ in requests]

    def checked_pass() -> None:
        outcome = solve_pass(requests, checks, probes)
        for k, (_, seconds) in enumerate(outcome):
            request_times[k].append(seconds)
        if not first:
            first.extend(result for result, _ in outcome)
            first_json.extend(None if result is None else result.to_json() for result in first)
            return
        for request, expected, (result, _) in zip(requests, first_json, outcome):
            if expected is not None and result is not None and result.to_json() != expected:
                checks.fail(f"{request.spec.dag.name} {request.scheduler}: result differs between passes")

    pass_times, _ = timed_passes(checked_pass, args.seconds)
    for request, result in zip(requests, first):
        if result is not None and not result.valid:
            checks.fail(f"{request.spec.dag.name} {request.scheduler}: invalid result")
    rng = random.Random(f"{args.workload}:{args.seed}:samples")
    for k in rng.sample(range(len(requests)), min(COMPUTE_SAMPLES, len(requests))):
        if first[k] is not None:
            check_decomposed(requests[k], first[k], checks)

    # Quality: total cost over Cilk's on the same instance, computed untimed.
    cilk: Dict[ProblemSpec, float] = {}
    ratios = []
    for request, result in zip(requests, first):
        if result is None:
            continue
        if request.spec not in cilk:
            cilk[request.spec] = api.solve(SolveRequest(spec=request.spec, scheduler="cilk")).total_cost
        ratios.append(result.total_cost / cilk[request.spec])

    # A request's time is its mean over the passes, a pass's the sum of those.
    times = [statistics.mean(seconds) for seconds in request_times]
    return {
        "checks": checks,
        "metrics": {
            **latency_metrics(times, sum(times)),
            "cost_ratio.geomean": geomean(ratios) if ratios else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "note": f"{len(pass_times)} passes of {len(requests)} requests, {len(probes.times)} probes",
        "probe_s": probes.probe_s(),
    }


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def result_bytes(line: bytes) -> Optional[bytes]:
    """The raw ``result`` object of a successful solve response line.

    Responses are encoded with sorted keys, so ``result`` is the last key of
    the top-level object.
    """
    _, found, tail = line.rstrip(b"\n").partition(b'"result":')
    return tail[:-1] if found and tail.endswith(b"}") else None


class Connection:
    """One closed-loop client connection speaking the daemon's wire format."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.next_id = 0

    def call(self, message: Dict[str, Any]) -> bytes:
        self.sock.sendall(protocol.encode(message))
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return line

    def solve(self, request: SolveRequest) -> bytes:
        self.next_id += 1
        return self.call(protocol.solve_message(request.to_dict(), id=self.next_id))

    def stats(self) -> Dict[str, Any]:
        self.next_id += 1
        return protocol.decode(self.call(protocol.stats_message(id=self.next_id)))["data"]

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


#: One answered request: (request, raw result or None, cached flag, round
#: trip seconds).
Sample = Tuple[SolveRequest, Optional[bytes], bool, float]


def drive(conn: Connection, requests: Iterable[SolveRequest], probes: Optional[Speed] = None) -> List[Sample]:
    """Closed loop: send each request after the previous answer."""
    out: List[Sample] = []
    for request in requests:
        if probes is not None:
            probes.maybe_probe()
        began = time.perf_counter()
        line = conn.solve(request)
        rtt = time.perf_counter() - began
        response = protocol.decode(line)
        raw = result_bytes(line) if response.get("ok") else None
        out.append((request, raw, bool(response.get("cached")), rtt))
    return out


def session(
    address: Tuple[str, int], requests: Iterable[SolveRequest], probes: Optional[Speed] = None
) -> List[Sample]:
    """One client connection sending ``requests``, as one ``repro submit`` batch does.

    The daemon keeps a connection's tickets until it closes, so one
    connection for the whole run would grow the daemon with the run's length.
    """
    conn = Connection(address)
    try:
        return drive(conn, requests, probes)
    finally:
        conn.close()


def cache_stats(address: Tuple[str, int]) -> Dict[str, Any]:
    conn = Connection(address)
    try:
        return conn.stats()["cache"]
    finally:
        conn.close()


def run_serve(args: argparse.Namespace) -> Dict[str, Any]:
    traffic = workloads.serve_traffic(args.seed, smoke=args.smoke)
    work = Path(args.work)
    trace_file = work / "daemon-trace.jsonl" if args.trace else None
    checks = Checks()
    probes = Speed()
    with open(work / "daemon.log", "wb") as log:
        daemon, address, _ = procs.start_daemon(
            procs.daemon_command(work / "cache", trace_file), procs.library_env(ROOT), stderr=log
        )
    try:
        # Untimed: every warm request solved once, then one round, after
        # which the in-memory cache holds the same keys at the start of every
        # round.
        untimed = session(address, traffic.warm) + session(address, traffic.round(0))
        before = cache_stats(address)
        indices = itertools.count(1)
        round_times, rounds = timed_passes(
            lambda: session(address, traffic.round(next(indices)), probes), args.seconds
        )
        after = cache_stats(address)
    finally:
        usage = procs.reap(daemon)
    if daemon.returncode != 0:
        checks.fail(f"daemon exited with status {daemon.returncode}")

    # Byte identity: every answer to a request equals its first answer.
    first: Dict[str, bytes] = {}
    requests: Dict[str, SolveRequest] = {}
    timed = [sample for samples in rounds for sample in samples]
    for request, raw, cached, _ in untimed + timed:
        key = request.to_json()
        requests[key] = request
        if raw is None:
            checks.fail(f"error response for {key[:80]}")
        elif key not in first:
            first[key] = raw
        elif raw != first[key]:
            checks.fail(f"{'cached' if cached else 'solved'} answer differs from the first for {key[:80]}")
    checks.attempted += len(untimed) + len(timed)
    rng = random.Random(f"serve:{args.seed}:samples")
    for key in rng.sample(sorted(first), min(SERVE_SAMPLES, len(first))):
        if encode_result(api.solve(requests[key])) != first[key]:
            checks.fail(f"daemon answer differs from in-process api.solve for {key[:80]}")
        check_decomposed(requests[key], SolveResult.from_dict(json.loads(first[key])), checks)

    # Quality over the distinct requests of the first timed round, which
    # every run of the seed sends.
    ratios = []
    for key in dict.fromkeys(sample[0].to_json() for sample in rounds[0]):
        if key in first:
            cilk = api.solve(SolveRequest(spec=requests[key].spec, scheduler="cilk")).total_cost
            ratios.append(json.loads(first[key])["total_cost"] / cilk)

    note = f"{len(rounds)} rounds of {len(traffic.slots)} requests, {len(probes.times)} probes"
    rtts = [sample[3] for sample in timed]
    if args.trace:
        metrics = layers.serve_layers(obs_trace.read_trace(trace_file), rtts, skip=len(untimed))
        # Every round sends the same slots, so per-round counts are whole
        # numbers unless the cache behaved differently from round to round.
        count = {name: (after[name] - before[name]) / len(rounds) for name in ("hits", "misses", "stores")}
        for name, value in count.items():
            if not float(value).is_integer():
                checks.fail(f"cache {name} differ between rounds")
        looked_up = count["hits"] + count["misses"]
        # Every probe of the run fell inside a timed round.
        round_s = (sum(round_times) - sum(probes.times)) / len(rounds)
        metrics.update(
            {
                "cache.hit_ratio": count["hits"] / looked_up if looked_up else 0.0,
                "cache.stores": count["stores"],
                "trace.pass_s": round_s,
                "trace.coverage": sum(rtts) / len(rounds) / round_s,
            }
        )
        return {"checks": checks, "metrics": metrics, "note": note, "probe_s": probes.probe_s()}

    return {
        "checks": checks,
        "metrics": {
            **latency_metrics(rtts, sum(rtts) / len(rounds)),
            "cost_ratio.geomean": geomean(ratios) if ratios else math.nan,
            "peak_rss_mb": usage.ru_maxrss / 1024.0 if usage is not None else math.nan,
        },
        "note": note,
        "probe_s": probes.probe_s(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one end-to-end workload run (see run.py)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory of this run")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    run = run_compute if args.workload in workloads.COMPUTE else run_serve
    outcome = run(args)
    checks: Checks = outcome.pop("checks")
    print(
        json.dumps(
            {"attempted": checks.attempted, "failed": checks.failed, "problems": checks.problems, **outcome}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
