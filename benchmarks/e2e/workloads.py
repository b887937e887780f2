"""Seeded inputs of the end-to-end workloads.

Every workload is a list of :class:`repro.spec.SolveRequest` objects made
from the ``--seed``; the program under test receives only these requests.

Compute workloads (``pipeline-hc``, ``multilevel-numa``, ``init-heuristics``)
solve fixed instances, as the paper's dataset is fixed, and the seed sets the
order they are solved in.  Relabelling each DAG by a seeded topological order
was tried: it changes every tie-break of hill climbing, and with the dozen
instances a sub-second pass holds, that alone moved the pass time by 5-10%
and the slowest request by 25% from seed to seed (timed interleaved, so the
machine's state could not cause it).  A benchmark whose inputs move that much
cannot show a change of that size.

The serve workload draws thousands of small generator requests, so its seed
re-draws everything: kind, size, pattern seed, machine and scheduler of every
request, and the order of the traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.graphs.coarse import generate_coarse_grained
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import generate_fine_grained
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

#: The paper's heuristic pipeline and multilevel scheduler, work-limited
#: (no wall-clock cut-off anywhere), so every result is deterministic.
PIPELINE = "framework(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)"
MULTILEVEL = "multilevel(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)"
INIT_SCHEDULERS = ("bl-est", "etf", "cilk", "hdagg", "source", "bspg")
SERVE_SCHEDULERS = ("bl-est", "source", "cilk")

COMPUTE = ("pipeline-hc", "multilevel-numa", "init-heuristics")
SERVE = ("serve",)
WORKLOADS = COMPUTE + SERVE

#: A DAG shape: generator kind (``coarse:<name>`` for the operator-level
#: generators) and its keyword arguments.
Shape = Tuple[str, Dict[str, int]]

# Sizes: every request takes at most about 0.15 s and a pass about 1 s (on
# the machine the README names), so a run of 20 s times each request over
# a dozen times and a pass's mean time is steady.

#: The paper's Table 1 (uniform, P=8) and Table 2 (NUMA, P=16) machines,
#: each with its own DAGs: the NUMA machine makes HC several times slower per
#: node, so it gets smaller DAGs.
_PIPELINE_SETS: List[Tuple[MachineSpec, List[Shape]]] = [
    (
        MachineSpec(P=8, g=1, l=5),
        [
            ("spmv", {"n": 18}),
            ("exp", {"n": 10, "k": 2}),
            ("exp", {"n": 7, "k": 4}),
            ("cg", {"n": 5, "k": 2}),
            ("knn", {"n": 10, "k": 5}),
            ("coarse:label_propagation", {"iterations": 12}),
            ("coarse:khop", {"iterations": 20}),
        ],
    ),
    (
        MachineSpec(P=16, g=3, l=5, delta=2),
        [
            ("spmv", {"n": 12}),
            ("exp", {"n": 7, "k": 2}),
            ("cg", {"n": 3, "k": 1}),
            ("coarse:pagerank", {"iterations": 8}),
            ("coarse:label_propagation", {"iterations": 8}),
            ("coarse:khop", {"iterations": 10}),
        ],
    ),
]

_MULTILEVEL_SHAPES: List[Shape] = [
    ("spmv", {"n": 7}),
    ("spmv", {"n": 6}),
    ("exp", {"n": 4, "k": 3}),
    ("exp", {"n": 5, "k": 2}),
    ("cg", {"n": 3, "k": 2}),
    ("cg", {"n": 4, "k": 1}),
    ("coarse:cg", {"iterations": 5}),
    ("coarse:bicgstab", {"iterations": 4}),
    ("coarse:pagerank", {"iterations": 10}),
    ("coarse:label_propagation", {"iterations": 12}),
    ("coarse:khop", {"iterations": 15}),
    ("coarse:kmeans", {"iterations": 5}),
]
#: The paper's Table 3 NUMA setting, where communication dominates.
_MULTILEVEL_MACHINE = MachineSpec(P=16, g=1, l=5, delta=4)

_INIT_SHAPES: List[Shape] = [
    ("spmv", {"n": 30}),
    ("exp", {"n": 20, "k": 2}),
    ("coarse:pagerank", {"iterations": 120}),
    ("coarse:cg", {"iterations": 60}),
]
_INIT_MACHINE = MachineSpec(P=64, g=2, l=5, delta=2)

#: Smoke mode: the same code paths at about 1/20 of the work.
_SMOKE_SHAPES: Dict[str, List[Shape]] = {
    "pipeline-hc": [("spmv", {"n": 8}), ("coarse:cg", {"iterations": 2})],
    "multilevel-numa": [("spmv", {"n": 6})],
    "init-heuristics": [("spmv", {"n": 12})],
}
_SMOKE_INIT_MACHINE = MachineSpec(P=16, g=2, l=5, delta=2)


def build_shape(shape: Shape, index: int) -> ComputationalDAG:
    """The fixed DAG of one shape (pattern seed = its index in the list)."""
    kind, params = shape
    if kind.startswith("coarse:"):
        dag = generate_coarse_grained(kind.split(":", 1)[1], **params)
    else:
        dag = generate_fine_grained(kind, q=0.25, seed=index, **params)
    label = "_".join(f"{key}{value}" for key, value in sorted(params.items()))
    dag.name = f"{kind.replace(':', '_')}_{label}"
    return dag


def _instances(shapes: List[Shape]) -> List[DagSpec]:
    return [DagSpec.from_dag(build_shape(shape, k)) for k, shape in enumerate(shapes)]


def compute_requests(workload: str, seed: int, *, smoke: bool = False) -> List[SolveRequest]:
    """The request list of one pass of a compute workload, in seeded order."""
    if workload == "pipeline-hc":
        sets = [(m, _SMOKE_SHAPES[workload]) for m, _ in _PIPELINE_SETS] if smoke else _PIPELINE_SETS
        requests = [
            SolveRequest(spec=ProblemSpec(dag=dag, machine=machine), scheduler=PIPELINE)
            for machine, shapes in sets
            for dag in _instances(shapes)
        ]
    elif workload == "multilevel-numa":
        shapes = _SMOKE_SHAPES[workload] if smoke else _MULTILEVEL_SHAPES
        requests = [
            SolveRequest(spec=ProblemSpec(dag=dag, machine=_MULTILEVEL_MACHINE), scheduler=MULTILEVEL)
            for dag in _instances(shapes)
        ]
    elif workload == "init-heuristics":
        shapes = _SMOKE_SHAPES[workload] if smoke else _INIT_SHAPES
        machine = _SMOKE_INIT_MACHINE if smoke else _INIT_MACHINE
        requests = [
            SolveRequest(spec=ProblemSpec(dag=dag, machine=machine), scheduler=scheduler)
            for dag in _instances(shapes)
            for scheduler in INIT_SCHEDULERS
        ]
    else:
        raise ValueError(f"not a compute workload: {workload!r}")
    random.Random(f"{workload}:{seed}").shuffle(requests)
    return requests


# ----------------------------------------------------------------------
# Serve traffic
# ----------------------------------------------------------------------
_SERVE_MACHINES = [MachineSpec(P=4, g=1, l=5), MachineSpec(P=8, g=3, l=5, delta=2)]

#: A new request's kind, size, machine (index into the serve machines) and
#: scheduler; its pattern seed is a uid no other request of the seed uses.
NewShape = Tuple[str, int, int, str]


@dataclass(frozen=True)
class ServeTraffic:
    """The serve workload's requests for one seed.

    ``warm`` requests are solved once before timing starts.  The timed
    traffic is a sequence of *rounds* of the same ``slots``: a slot holding
    an ``int`` repeats that warm request (a cache hit), a slot holding a
    :data:`NewShape` sends a new request of that shape (a miss: solve and
    store), with a pattern seed of its own in every round.  Every round
    costs the same and meets the cache in the same state, so cache counts
    per round are whole numbers.
    """

    warm: List[SolveRequest]
    slots: List[Union[int, NewShape]]
    uid_base: int

    def round(self, index: int) -> List[SolveRequest]:
        """The requests of round ``index`` (round 0 is the untimed warm-up)."""
        out = []
        for k, slot in enumerate(self.slots):
            if isinstance(slot, int):
                out.append(self.warm[slot])
            else:
                out.append(new_request(slot, self.uid_base + index * len(self.slots) + k))
        return out


#: Distinct requests solved before timing, slots per round, and repeats in
#: every ten slots.  300 warm requests outnumber the daemon's 128-entry
#: in-memory cache, so repeats are served from memory and from disk.  A
#: fixed count of repeats per ten, in seeded order, gives every stretch of
#: traffic the same mix.
SERVE_WARM = 300
SERVE_SLOTS = 500
SERVE_REPEATS_PER_10 = 9
_SMOKE_WARM = 15
_SMOKE_SLOTS = 50


def new_request(shape: NewShape, uid: int) -> SolveRequest:
    """One small generator request; ``uid`` makes it distinct from all others."""
    kind, n, machine, scheduler = shape
    params = {"n": n, "q": 0.25, "seed": uid}
    if kind == "exp":
        params["k"] = 2
    elif kind == "cg":
        params["k"] = 1
    return SolveRequest(
        spec=ProblemSpec(dag=DagSpec.generator(kind, **params), machine=_SERVE_MACHINES[machine]),
        scheduler=scheduler,
    )


def _draw_shape(rng: random.Random) -> NewShape:
    return (
        rng.choice(("spmv", "exp", "cg")),
        rng.randint(5, 9),
        rng.randrange(len(_SERVE_MACHINES)),
        rng.choice(SERVE_SCHEDULERS),
    )


def serve_traffic(seed: int, *, smoke: bool = False) -> ServeTraffic:
    """The warm set and round of the serve workload for ``seed``."""
    rng = random.Random(f"serve:{seed}")
    warm_count, slot_count = (_SMOKE_WARM, _SMOKE_SLOTS) if smoke else (SERVE_WARM, SERVE_SLOTS)
    uid_base = (seed % 100_000) * 10_000_000
    warm = [new_request(_draw_shape(rng), uid_base + 5_000_000 + k) for k in range(warm_count)]
    slots: List[Union[int, NewShape]] = []
    while len(slots) < slot_count:
        pattern = [k < SERVE_REPEATS_PER_10 for k in range(10)]
        rng.shuffle(pattern)
        for repeat in pattern:
            slots.append(rng.randrange(warm_count) if repeat else _draw_shape(rng))
    return ServeTraffic(warm=warm, slots=slots[:slot_count], uid_base=uid_base)
