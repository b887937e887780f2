"""Pinned hill-climbing outputs, compared across commits.

The work-limited heuristic pipeline (``framework``) and multilevel scheduler
are deterministic, and hill climbing does most of their work.  This test
hashes the processor assignment, superstep assignment and cost of their
schedules on a few generator DAGs at the paper's machines, and compares the
hashes with constants recorded before the local-search cost engine changed
its layout.  A faster probe or engine must leave every schedule bit-identical;
a change to HC's move sequence, tie-breaks or floating-point summation order
can show up here even where the cost alone would not move.

Several multilevel cases end on a one-processor schedule (on these small
DAGs it beats every spread-out one) and so share a digest; those cases
pin only that the refined schedules do not beat it.

If a change alters schedules on purpose, record the new constants with
``PYTHONPATH=src python tests/test_hc_output_pin.py`` and say why in the
change log.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.graphs.coarse import generate_coarse_grained
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import generate_fine_grained
from repro.model.machine import BspMachine
from repro.registry import make_scheduler

SCHEDULERS = {
    "framework": "framework(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)",
    "multilevel": "multilevel(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)",
}

#: The paper's Table 1 (uniform), Table 2 (NUMA) and Table 3
#: (communication-heavy NUMA) machines.
MACHINES = {
    "P8-g1": lambda: BspMachine.uniform(8, g=1, l=5),
    "P16-g3-d2": lambda: BspMachine.hierarchical(16, delta=2, g=3, l=5),
    "P16-g1-d4": lambda: BspMachine.hierarchical(16, delta=4, g=1, l=5),
}

DAGS = {
    "spmv": lambda: generate_fine_grained("spmv", n=7, q=0.25, seed=0),
    "exp": lambda: generate_fine_grained("exp", n=7, k=2, q=0.25, seed=1),
    "cg": lambda: generate_fine_grained("cg", n=4, k=1, q=0.25, seed=2),
    "kmeans": lambda: generate_coarse_grained("kmeans", iterations=5),
}

#: sha256 prefixes of (proc, step, cost), keyed by (scheduler, DAG, machine).
EXPECTED: Dict[Tuple[str, str, str], str] = {
    ("framework", "spmv", "P8-g1"): "d135c5560cffdae7",
    ("framework", "spmv", "P16-g3-d2"): "8a393b043293101a",
    ("framework", "spmv", "P16-g1-d4"): "2e4003a8943b48e0",
    ("framework", "exp", "P8-g1"): "b5813f6be95e2f52",
    ("framework", "exp", "P16-g3-d2"): "b47763bc12269a2d",
    ("framework", "exp", "P16-g1-d4"): "41918f0b0d8afc7e",
    ("framework", "cg", "P8-g1"): "54928ca431aae6d1",
    ("framework", "cg", "P16-g3-d2"): "84682847cd094628",
    ("framework", "cg", "P16-g1-d4"): "3225cb877b54e30f",
    ("framework", "kmeans", "P8-g1"): "f251c534b6b4fabf",
    ("framework", "kmeans", "P16-g3-d2"): "dc118ecb4f655c9d",
    ("framework", "kmeans", "P16-g1-d4"): "ec89019d7e7cf595",
    ("multilevel", "spmv", "P8-g1"): "5424aaed6a4907b0",
    ("multilevel", "spmv", "P16-g3-d2"): "ace44caa00958973",
    ("multilevel", "spmv", "P16-g1-d4"): "6a321de6b22124af",
    ("multilevel", "exp", "P8-g1"): "2d745681580fa4ae",
    ("multilevel", "exp", "P16-g3-d2"): "a8cab2a608a176fc",
    ("multilevel", "exp", "P16-g1-d4"): "f4b11ebcf706ff60",
    ("multilevel", "cg", "P8-g1"): "af0f506b03fa3c8d",
    ("multilevel", "cg", "P16-g3-d2"): "a94abc7b16bf952b",
    ("multilevel", "cg", "P16-g1-d4"): "a94abc7b16bf952b",
    ("multilevel", "kmeans", "P8-g1"): "0743dca3ec8aa5f0",
    ("multilevel", "kmeans", "P16-g3-d2"): "0743dca3ec8aa5f0",
    ("multilevel", "kmeans", "P16-g1-d4"): "0743dca3ec8aa5f0",
}


def schedule_digest(scheduler: str, dag: ComputationalDAG, machine: BspMachine) -> str:
    schedule = make_scheduler(SCHEDULERS[scheduler]).schedule(dag, machine)
    digest = hashlib.sha256()
    digest.update(np.asarray(schedule.proc, dtype=np.int64).tobytes())
    digest.update(np.asarray(schedule.step, dtype=np.int64).tobytes())
    digest.update(repr(float(schedule.cost())).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(EXPECTED), ids="-".join)
def test_schedule_matches_pinned_digest(key):
    scheduler, dag_name, machine_name = key
    got = schedule_digest(scheduler, DAGS[dag_name](), MACHINES[machine_name]())
    assert got == EXPECTED[key]


def test_every_case_is_pinned():
    assert set(EXPECTED) == {
        (s, d, m) for s in SCHEDULERS for d in DAGS for m in MACHINES
    }


if __name__ == "__main__":
    for s in SCHEDULERS:
        for d in DAGS:
            for m in MACHINES:
                print(f'    ("{s}", "{d}", "{m}"): "{schedule_digest(s, DAGS[d](), MACHINES[m]())}",')
