"""Shared fixtures for the benchmark harness.

``bench_tables.py`` regenerates every table and figure of the paper's
evaluation through ``repro.experiments.tables.reproduce``, which declares the
grids; the other suites time kernels, the portfolio, serving and the
distributed queue.  By default everything runs on the ``smoke``-scale
datasets (a handful of instances per dataset, a few hundred nodes at most).
The *shape* of the results (who wins, roughly by how much, how the gap grows
with g, P and delta) reproduces the paper; absolute numbers do not (see the
README section "Reproducing the paper's tables and figures").

Set the environment variable ``REPRO_BENCH_SCALE`` to ``reduced`` or
``paper`` to run the heavier versions.
"""

from __future__ import annotations

import os
from typing import List

import pytest

from repro.experiments.datasets import build_dataset
from repro.graphs.dag import ComputationalDAG

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")

#: Worker processes of the experiment engine (1 = serial); aggregates are
#: identical for every value, only the wall-clock changes.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Instances per dataset used by the benchmarks at each scale.
_MAX_INSTANCES = {"smoke": 2, "reduced": 8, "paper": None}


def _instances(name: str) -> List[ComputationalDAG]:
    return build_dataset(name, scale=SCALE, max_instances=_MAX_INSTANCES[SCALE], seed=7)


@pytest.fixture(scope="session")
def tiny_dataset() -> List[ComputationalDAG]:
    return _instances("tiny")


@pytest.fixture(scope="session")
def small_dataset() -> List[ComputationalDAG]:
    return _instances("small")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def emit():
    """Print a regenerated table and persist it under ``benchmarks/results/``.

    pytest captures stdout by default, so the persisted files are the easy
    way to look at the regenerated tables after a benchmark run (see the
    README section "Reproducing the paper's tables and figures").
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _emit(*tables) -> None:
        for table in tables:
            text = table.to_text()
            print("\n" + text + "\n")
            slug = "".join(c if c.isalnum() else "_" for c in table.title.split(":")[0]).strip("_")
            path = os.path.join(RESULTS_DIR, f"{slug}.txt")
            with open(path, "w") as handle:
                handle.write(text + "\n")

    return _emit
