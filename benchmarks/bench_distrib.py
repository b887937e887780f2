"""Benchmarks of the pull-based distributed batch runner.

Three measurements over the same deterministic request batch:

* **direct batch** — ``api.solve_many`` in-process, the baseline every
  queued run is compared against (and must match byte-for-byte);
* **queued, one worker** — the batch fanned out through a directory queue
  with only the inline worker draining it: the full protocol overhead
  (envelope writes, atomic claims, result files, polling) with zero
  parallelism to hide it;
* **queued, two workers** — the same batch with one external
  ``repro worker`` process racing the inline worker on the shared queue.

A fourth pass demonstrates the shared-cache composition: portfolio
requests through the queue, cold then warm, where the warm pass serves
every request from the solution cache the cold pass populated.

Printed tables land in ``benchmarks/results/`` like the paper-table
benches.
"""

import os
import subprocess
import sys
import time

from conftest import run_once

from repro import api
from repro.experiments.report import Table
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

#: Deterministic requests (etf: fast, deterministic, cache-free).
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


def test_distrib_direct_batch(benchmark):
    """The in-process baseline the queued paths must match byte-for-byte."""

    def run():
        start = time.perf_counter()
        results = api.solve_many(REQUESTS)
        TIMINGS["direct"] = time.perf_counter() - start
        return results

    results = run_once(benchmark, run)
    assert all(r.valid for r in results)
    TIMINGS["direct results"] = [r.to_json() for r in results]


def test_distrib_queued_single_worker(benchmark, tmp_path_factory):
    """Queue protocol overhead: enqueue + inline drain, no extra workers."""
    queue_dir = tmp_path_factory.mktemp("distrib-bench-q1")

    def run():
        start = time.perf_counter()
        results = api.solve_many(
            REQUESTS, queue_dir=queue_dir / "q", queue_timeout=300
        )
        TIMINGS["queued 1 worker"] = time.perf_counter() - start
        return results

    results = run_once(benchmark, run)
    assert [r.to_json() for r in results] == TIMINGS["direct results"]


def test_distrib_queued_two_workers(benchmark, tmp_path_factory, emit):
    """One external ``repro worker`` process races the inline worker."""
    queue_dir = tmp_path_factory.mktemp("distrib-bench-q2") / "q"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

    def run():
        start = time.perf_counter()
        external = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                str(queue_dir),
                "--max-idle",
                "3",
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            results = api.solve_many(REQUESTS, queue_dir=queue_dir, queue_timeout=300)
        finally:
            external.wait(timeout=60)
        TIMINGS["queued 2 workers"] = time.perf_counter() - start
        return results

    results = run_once(benchmark, run)
    assert [r.to_json() for r in results] == TIMINGS["direct results"]

    table = Table(
        title="Distributed queue: direct vs queued (1 and 2 workers)",
        headers=["path", "seconds", "vs direct"],
    )
    direct = TIMINGS["direct"]
    for label in ("direct", "queued 1 worker", "queued 2 workers"):
        seconds = TIMINGS[label]
        ratio = seconds / direct if direct > 0 else float("inf")
        table.add_row(label, f"{seconds:.3f}", f"{ratio:.2f}x")
    table.add_note(f"{len(REQUESTS)} deterministic etf requests, shared queue directory")
    table.add_note("every queued pass is byte-identical to the direct batch")
    emit(table)


def test_distrib_queued_warm_cache(benchmark, tmp_path_factory, emit):
    """Queued portfolio batch: the warm pass serves from the shared cache."""
    cache_dir = tmp_path_factory.mktemp("distrib-bench-cache")
    requests = [
        SolveRequest(
            spec=ProblemSpec(
                dag=DagSpec.generator("spmv", n=12, q=0.25, seed=seed),
                machine=MachineSpec(P=4, g=2, l=5),
            ),
            scheduler=f"portfolio(cache='{cache_dir}')",
        )
        for seed in range(4)
    ]
    cold_start = time.perf_counter()
    cold = api.solve_many(
        requests, queue_dir=tmp_path_factory.mktemp("distrib-bench-qc") / "q",
        queue_timeout=300,
    )
    cold_seconds = time.perf_counter() - cold_start

    def warm_run():
        return api.solve_many(
            requests, queue_dir=tmp_path_factory.mktemp("distrib-bench-qw") / "q",
            queue_timeout=300,
        )

    warm_start = time.perf_counter()
    warm = run_once(benchmark, warm_run)
    warm_seconds = time.perf_counter() - warm_start

    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]

    table = Table(
        title="Distributed queue + shared cache: cold vs warm portfolio batch",
        headers=["metric", "value"],
    )
    table.add_row("requests", len(requests))
    table.add_row("cold queued seconds", f"{cold_seconds:.3f}")
    table.add_row("warm queued seconds", f"{warm_seconds:.3f}")
    table.add_note("warm results are byte-identical to the cold queued run")
    emit(table)
