"""Benchmarks of the solve daemon: one-shot CLI vs daemon cold vs warm.

The serving claim is amortization, demonstrated in three measurements over
the same deterministic request batch:

* **one-shot CLI** — ``python -m repro batch`` in a fresh interpreter, the
  cost every scripted caller pays per invocation (process start + imports
  + cold solve);
* **daemon, cold cache** — the same batch pipelined over one connection to
  a running daemon (no interpreter start, but every request is solved);
* **daemon, warm cache** — the batch again on the same daemon: every
  request is served from the shared solution cache without invoking a
  scheduler, byte-identical to the cold pass.

Printed tables land in ``benchmarks/results/`` like the paper-table benches.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import run_once

from repro.experiments.report import Table
from repro.serve.client import connect
from repro.serve.server import ServeConfig, SolveServer
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

#: Deterministic, cacheable requests (etf is fast and deterministic).
REQUESTS = [
    SolveRequest(
        spec=ProblemSpec(
            dag=DagSpec.generator("spmv", n=16, q=0.25, seed=seed),
            machine=MachineSpec(P=4, g=2, l=5),
        ),
        scheduler="etf",
    )
    for seed in range(6)
]

#: Wall-clock of each pass, collected across tests for the summary table.
TIMINGS = {}


@pytest.fixture(scope="module")
def request_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-bench") / "requests.jsonl"
    path.write_text("".join(json.dumps(r.to_dict()) + "\n" for r in REQUESTS))
    return path


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-bench-cache")
    config = ServeConfig(port=0, jobs=2, cache_dir=str(cache_dir))
    with SolveServer(config) as server:
        yield server


def test_serve_one_shot_cli(benchmark, request_file, tmp_path_factory):
    """A fresh ``repro batch`` process per batch: the cost the daemon amortizes."""
    out = tmp_path_factory.mktemp("serve-bench-out") / "one_shot.jsonl"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

    def run():
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "batch", str(request_file), "--out", str(out)],
            cwd=REPO_ROOT,
            env=env,
            check=True,
            capture_output=True,
        )
        TIMINGS["one-shot CLI"] = time.perf_counter() - start

    run_once(benchmark, run)
    TIMINGS["one-shot results"] = out.read_bytes()


def test_serve_daemon_cold(benchmark, daemon):
    """First pass over a fresh daemon: no process start, every request solved."""

    def run():
        start = time.perf_counter()
        with connect(daemon.address) as client:
            results = client.solve_many(REQUESTS)
        TIMINGS["daemon cold"] = time.perf_counter() - start
        return results

    results = run_once(benchmark, run)
    assert all(r.valid for r in results)
    assert daemon.stats()["requests"]["cache_hits"] == 0
    TIMINGS["cold results"] = results


def test_serve_daemon_warm(benchmark, daemon, emit):
    """Second pass: served entirely from the shared cache, byte-identical."""

    def run():
        start = time.perf_counter()
        with connect(daemon.address) as client:
            results = client.solve_many(REQUESTS)
        TIMINGS["daemon warm"] = time.perf_counter() - start
        return results

    results = run_once(benchmark, run)
    cold = TIMINGS["cold results"]
    assert [r.to_json() for r in results] == [r.to_json() for r in cold]
    stats = daemon.stats()
    assert stats["requests"]["cache_hits"] >= len(REQUESTS)

    # The daemon passes write the same lines `repro batch` writes.
    served_bytes = "".join(r.to_json() + "\n" for r in results).encode()
    assert served_bytes == TIMINGS["one-shot results"]

    table = Table(
        title="Serve: one-shot CLI vs daemon cold vs daemon warm",
        headers=["path", "seconds", "speedup vs one-shot"],
    )
    one_shot = TIMINGS["one-shot CLI"]
    for label in ("one-shot CLI", "daemon cold", "daemon warm"):
        seconds = TIMINGS[label]
        speedup = one_shot / seconds if seconds > 0 else float("inf")
        table.add_row(label, f"{seconds:.3f}", f"{speedup:.1f}x")
    table.add_note(f"{len(REQUESTS)} deterministic etf requests, jobs=2, one connection")
    table.add_note("warm pass is byte-identical to cold and to the one-shot CLI output")
    emit(table)

    # The amortization claims: a warm daemon round trip must beat a fresh
    # interpreter (which pays startup + imports), and must not have invoked
    # any scheduler (every request was a cache hit, asserted above).
    assert TIMINGS["daemon warm"] < one_shot
