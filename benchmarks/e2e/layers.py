"""Per-layer metrics from ``repro-trace/1`` span records.

A layer's time is the *self* time of its spans (span time minus the time of
its child spans) per timed pass; ``multilevel.coarse_solve_s`` is the one
inclusive figure, because the nested pipeline is its only child.  Spans
named ``spec.build``, ``registry.make_scheduler``, ``heuristics.*``,
``baselines.*``, ``scheduler.*`` and ``model.*`` are the benchmark's own,
around calls into public functions; the program's spans (``init``,
``hill_climb``, ``coarsen``, ``serve_request``, ...) nest inside them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.obs.metrics import percentiles
from repro.obs.traceview import summarize_trace

#: Root span of one timed pass (benchmark-owned).
PASS_SPAN = "pass"

#: Benchmark span around ``Scheduler.schedule`` per registry name.
_SCHEDULER_SPANS = {
    "bspg": "heuristics.bspg",
    "source": "heuristics.source",
    "bl-est": "baselines.bl_est",
    "etf": "baselines.etf",
    "cilk": "baselines.cilk",
    "hdagg": "baselines.hdagg",
}

#: Per-layer metric -> span whose self time it reports.
SELF_TIME_METRICS = {
    "spec.build_s": "spec.build",
    "registry.make_scheduler_s": "registry.make_scheduler",
    "heuristics.bspg_s": "heuristics.bspg",
    "heuristics.source_s": "heuristics.source",
    "baselines.bl_est_s": "baselines.bl_est",
    "baselines.etf_s": "baselines.etf",
    "baselines.cilk_s": "baselines.cilk",
    "baselines.hdagg_s": "baselines.hdagg",
    "pipeline.init_s": "init",
    "localsearch.hill_climb_s": "hill_climb",
    "localsearch.comm_hill_climb_s": "comm_hill_climb",
    "multilevel.coarsen_s": "coarsen",
    "multilevel.refine_level_s": "refine_level",
    "model.validate_s": "model.validate",
    "model.cost_s": "model.cost",
}
TOTAL_TIME_METRICS = {"multilevel.coarse_solve_s": "coarse_solve"}
COUNT_METRICS = (
    "localsearch.hill_climb.calls",
    "localsearch.hill_climb.moves",
    "localsearch.hill_climb.passes",
    "localsearch.hill_climb.engine_transactions",
    "multilevel.refine_levels",
)


def scheduler_span(scheduler_spec: str) -> str:
    """Name of the benchmark span around one scheduler's ``schedule`` call."""
    name = scheduler_spec.split("(", 1)[0].strip().lower()
    return _SCHEDULER_SPANS.get(name, f"scheduler.{name}")


def compute_layers(records: List[Dict[str, Any]], passes: int, *, probed_s: float = 0.0) -> Dict[str, float]:
    """Per-pass layer metrics of a traced compute run.

    ``records`` are the tracer's span records of ``passes`` identical timed
    passes, each under one :data:`PASS_SPAN` root; ``probed_s`` seconds of
    speed probes ran inside those roots and are left out of the pass time.
    """
    stages = summarize_trace(records)["stages"]
    out: Dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        out[metric] = stages.get(name, {}).get("self_s", 0.0) / passes
    for metric, name in TOTAL_TIME_METRICS.items():
        out[metric] = stages.get(name, {}).get("total_s", 0.0) / passes

    # Counts per pass: whole numbers, since every pass repeats the same work.
    climbs = [r for r in records if r["name"] == "hill_climb"]
    moves = sum(int(r["attrs"].get("moves", 0)) for r in climbs)
    out["localsearch.hill_climb.calls"] = len(climbs) / passes
    out["localsearch.hill_climb.moves"] = moves / passes
    for attr in ("passes", "engine_transactions"):
        out[f"localsearch.hill_climb.{attr}"] = sum(int(r["attrs"].get(attr, 0)) for r in climbs) / passes
    out["multilevel.refine_levels"] = stages.get("refine_level", {}).get("count", 0) / passes
    climb_s = sum(r["t1"] - r["t0"] for r in climbs)
    out["localsearch.hill_climb.us_per_move"] = climb_s / moves * 1e6 if moves else 0.0

    roots = sum(r["t1"] - r["t0"] for r in records if r["name"] == PASS_SPAN) - probed_s
    covered = sum(stage["self_s"] for name, stage in stages.items() if name != PASS_SPAN)
    out["trace.coverage"] = covered / roots if roots > 0 else 0.0
    out["trace.pass_s"] = roots / passes
    return out


def serve_layers(
    server_records: List[Dict[str, Any]],
    round_trips: Sequence[float],
    *,
    skip: int,
) -> Dict[str, float]:
    """Layer metrics of a traced serve run.

    The daemon's ``serve_request`` spans are taken in start order and the
    first ``skip`` (the untimed prefill and warm-up) dropped.  The outside
    time — protocol, socket and queue wait — is the median client round
    trip minus the median server span, because spans carry no request id
    to pair them one by one.
    """
    spans = sorted(
        (r for r in server_records if r.get("name") == "serve_request"), key=lambda r: r["t0"]
    )[skip:]
    hits = [r["t1"] - r["t0"] for r in spans if r["attrs"].get("cached") is True]
    misses = [r["t1"] - r["t0"] for r in spans if r["attrs"].get("cached") is False]
    server = percentiles(hits + misses, (50.0,))["p50"]
    return {
        "serve.request_s.hit.p50": percentiles(hits, (50.0,))["p50"],
        "serve.request_s.miss.p50": percentiles(misses, (50.0,))["p50"],
        "serve.request_s.miss.p99": percentiles(misses, (99.0,))["p99"],
        "serve.outside_s.p50": percentiles(list(round_trips), (50.0,))["p50"] - server,
    }
