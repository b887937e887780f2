"""Declarative problem specifications — the wire format of the solve API.

Every workflow of the package (CLI invocations, experiment sweeps, batch
services) boils down to the same request: *schedule this DAG on this machine
with this scheduler*.  This module gives that request a frozen, JSON
round-trippable shape so it can be stored in files, sent over a wire, hashed
for caching, and replayed deterministically:

* :class:`DagSpec` — where the computational DAG comes from: a hyperDAG
  file, one of the paper's generators (kind + parameters), or an inline
  node/edge description;
* :class:`MachineSpec` — the BSP/NUMA machine: ``P``/``g``/``l`` plus an
  optional binary-tree hierarchy ``delta``, processor groups, or an explicit
  NUMA matrix;
* :class:`ProblemSpec` — one (DAG, machine) instance;
* :class:`SolveRequest` — a problem plus a scheduler spec string (see
  :mod:`repro.registry`), an optional seed and an optional time budget;
* :class:`SolveResult` — the cost breakdown, superstep count, validation
  status, wall time and scheduler metadata of a solved request.

``X.from_dict(x.to_dict())`` (and the JSON equivalents) is an identity for
every spec class; :meth:`SolveResult.to_dict` is deterministic by default
(wall time excluded) so batched and serial runs can be compared bytewise.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .graphs.dag import ComputationalDAG
from .model.machine import BspMachine

__all__ = [
    "SpecError",
    "DagSpec",
    "MachineSpec",
    "ProblemSpec",
    "SolveRequest",
    "SolveResult",
]


class SpecError(ValueError):
    """Raised for malformed or inconsistent problem specifications."""


_DAG_SOURCES = ("generator", "hyperdag", "inline")


def _freeze_params(params: Union[Mapping[str, Any], Sequence[Tuple[str, Any]], None]) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a parameter mapping to a sorted, hashable tuple of pairs."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    frozen = []
    for key, value in items:
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        frozen.append((str(key), value))
    return tuple(sorted(frozen))


def _int_tuple(values: Sequence[Any]) -> Tuple[int, ...]:
    """``values`` as a tuple of plain ints; a tuple of ints is kept as is."""
    if type(values) is tuple and set(map(type, values)) <= {int}:
        return values
    return tuple(int(v) for v in values)


def _int_pairs(edges: Sequence[Sequence[Any]]) -> Tuple[Tuple[int, int], ...]:
    """``edges`` as a tuple of ``(int, int)`` pairs; such a tuple is kept as is.

    The type test is several times cheaper than rebuilding every pair, which
    matters for specs embedding a large DAG (:meth:`DagSpec.from_dag`).
    """
    if (
        type(edges) is tuple
        and set(map(type, edges)) <= {tuple}
        and set(map(len, edges)) <= {2}
        and set(map(type, itertools.chain.from_iterable(edges))) <= {int}
    ):
        return edges
    return tuple((int(u), int(v)) for u, v in edges)


@dataclass(frozen=True)
class DagSpec:
    """Serializable description of where a computational DAG comes from.

    Exactly one of the three sources is used:

    * ``source="generator"``: ``kind`` names one of the fine- or
      coarse-grained generators and ``params`` holds its keyword arguments;
    * ``source="hyperdag"``: ``path`` points at a hyperDAG file;
    * ``source="inline"``: ``n``/``edges``/``work``/``comm`` describe the
      DAG explicitly (the shape a service would receive over the wire).
    """

    source: str
    kind: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    path: Optional[str] = None
    n: Optional[int] = None
    edges: Tuple[Tuple[int, int], ...] = ()
    work: Optional[Tuple[int, ...]] = None
    comm: Optional[Tuple[int, ...]] = None
    name: Optional[str] = None
    #: Per-node memory weights of the memory-constrained model variant
    #: (inline source only); omitted weights default to the work weights.
    memory: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.source not in _DAG_SOURCES:
            raise SpecError(f"unknown DAG source {self.source!r}; expected one of {_DAG_SOURCES}")
        object.__setattr__(self, "params", _freeze_params(self.params))
        object.__setattr__(self, "edges", _int_pairs(self.edges))
        for field_name in ("work", "comm", "memory"):
            values = getattr(self, field_name)
            if values is not None:
                object.__setattr__(self, field_name, _int_tuple(values))
        if self.source == "generator" and not self.kind:
            raise SpecError("generator DAG specs need a 'kind'")
        if self.source == "hyperdag" and not self.path:
            raise SpecError("hyperdag DAG specs need a 'path'")
        if self.source == "inline" and self.n is None:
            raise SpecError("inline DAG specs need a node count 'n'")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def generator(cls, kind: str, **params: Any) -> "DagSpec":
        """Spec for one of the paper's DAG generators (``spmv``, ``cg``, ...)."""
        return cls(source="generator", kind=kind, params=_freeze_params(params))

    @classmethod
    def hyperdag(cls, path: Any) -> "DagSpec":
        """Spec pointing at a hyperDAG file on disk (any path-like value)."""
        return cls(source="hyperdag", path=str(path))

    @classmethod
    def from_dag(cls, dag: ComputationalDAG) -> "DagSpec":
        """Inline spec embedding an existing DAG (edges are deduplicated/sorted).

        Memory weights are only embedded when they differ from the work
        weights (their default), keeping the common case compact.
        """
        work = np.asarray(dag.work)
        memory = np.asarray(dag.memory)
        return cls(
            source="inline",
            n=int(dag.n),
            edges=tuple(dag.edges),
            work=tuple(work.tolist()),
            comm=tuple(np.asarray(dag.comm).tolist()),
            name=dag.name,
            memory=None if np.array_equal(memory, work) else tuple(memory.tolist()),
        )

    # ------------------------------------------------------------------
    @property
    def params_dict(self) -> Dict[str, Any]:
        """Generator parameters as a plain dict."""
        return dict(self.params)

    @property
    def pure(self) -> bool:
        """Whether :meth:`build` is a function of this spec alone.

        Follows :meth:`build`'s dispatch: inline specs and the coarse
        generators are pure; a fine generator (``cg`` resolves there first)
        draws a random sparsity pattern unless the spec fixes an integer
        ``seed`` or an explicit ``pattern``; a hyperDAG file may change on
        disk between two builds, so it never is.  Callers may memoize what
        they derive from a pure spec's DAG by the spec alone.
        """
        if self.source != "generator":
            return self.source == "inline"
        from .graphs.coarse import COARSE_GRAINED_GENERATORS
        from .graphs.fine import FINE_GRAINED_GENERATORS

        if self.kind in FINE_GRAINED_GENERATORS:
            params = self.params_dict
            seed = params.get("seed")
            return params.get("pattern") is not None or (
                isinstance(seed, int) and not isinstance(seed, bool)
            )
        return self.kind in COARSE_GRAINED_GENERATORS

    def build(self) -> ComputationalDAG:
        """Materialize the computational DAG this spec describes."""
        if self.source == "hyperdag":
            from .graphs.hyperdag import read_hyperdag

            return read_hyperdag(self.path)
        if self.source == "inline":
            return ComputationalDAG(
                int(self.n),
                list(self.edges),
                work=list(self.work) if self.work is not None else None,
                comm=list(self.comm) if self.comm is not None else None,
                name=self.name or "inline",
                memory=list(self.memory) if self.memory is not None else None,
            )
        from .graphs.coarse import COARSE_GRAINED_GENERATORS, generate_coarse_grained
        from .graphs.fine import FINE_GRAINED_GENERATORS, generate_fine_grained

        params = self.params_dict
        if self.kind in FINE_GRAINED_GENERATORS:
            dag = generate_fine_grained(self.kind, **params)
        elif self.kind in COARSE_GRAINED_GENERATORS:
            dag = generate_coarse_grained(self.kind, **params)
        else:
            raise SpecError(
                f"unknown generator kind {self.kind!r}; fine-grained: "
                f"{sorted(FINE_GRAINED_GENERATORS)}, coarse-grained: "
                f"{sorted(COARSE_GRAINED_GENERATORS)}"
            )
        if self.name:
            dag.name = self.name
        return dag

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (only the fields of the source)."""
        out: Dict[str, Any] = {"source": self.source}
        if self.source == "generator":
            out["kind"] = self.kind
            out["params"] = {k: list(v) if isinstance(v, tuple) else v for k, v in self.params}
        elif self.source == "hyperdag":
            out["path"] = self.path
        else:
            out["n"] = self.n
            out["edges"] = [list(e) for e in self.edges]
            if self.work is not None:
                out["work"] = list(self.work)
            if self.comm is not None:
                out["comm"] = list(self.comm)
            if self.memory is not None:
                out["memory"] = list(self.memory)
        if self.name is not None:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DagSpec":
        """Rebuild a spec written by :meth:`to_dict`."""
        source = data.get("source")
        if source == "generator":
            return cls(
                source="generator",
                kind=data.get("kind"),
                params=_freeze_params(data.get("params")),
                name=data.get("name"),
            )
        if source == "hyperdag":
            return cls(source="hyperdag", path=data.get("path"), name=data.get("name"))
        if source == "inline":
            return cls(
                source="inline",
                n=data.get("n"),
                edges=tuple(tuple(e) for e in data.get("edges", ())),
                work=tuple(data["work"]) if data.get("work") is not None else None,
                comm=tuple(data["comm"]) if data.get("comm") is not None else None,
                name=data.get("name"),
                memory=tuple(data["memory"]) if data.get("memory") is not None else None,
            )
        raise SpecError(f"unknown DAG source {source!r}; expected one of {_DAG_SOURCES}")


@dataclass(frozen=True)
class MachineSpec:
    """Serializable description of a BSP machine with optional NUMA effects.

    The NUMA structure is given by at most one of: an explicit ``numa``
    matrix, a binary-tree hierarchy factor ``delta`` (paper Section 6), or
    processor ``groups`` with intra/inter coefficients; with none of them
    the machine is uniform.  Setting more than one is rejected so the JSON
    round trip stays an identity.

    ``memory_bound`` opts into the memory-constrained model variant: a
    scalar bound applied to every processor, or one value per processor.
    """

    P: int
    g: float = 1.0
    l: float = 5.0
    delta: Optional[float] = None
    groups: Optional[Tuple[int, ...]] = None
    intra: float = 1.0
    inter: float = 4.0
    numa: Optional[Tuple[Tuple[float, ...], ...]] = None
    memory_bound: Optional[Union[float, Tuple[float, ...]]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "P", int(self.P))
        object.__setattr__(self, "g", float(self.g))
        object.__setattr__(self, "l", float(self.l))
        if self.delta is not None:
            object.__setattr__(self, "delta", float(self.delta))
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(int(s) for s in self.groups))
        object.__setattr__(self, "intra", float(self.intra))
        object.__setattr__(self, "inter", float(self.inter))
        if self.numa is not None:
            object.__setattr__(
                self, "numa", tuple(tuple(map(float, row)) for row in self.numa)
            )
        if self.P <= 0:
            raise SpecError("P must be positive")
        if self.memory_bound is not None:
            if isinstance(self.memory_bound, (list, tuple)):
                bounds = tuple(float(b) for b in self.memory_bound)
                if len(bounds) != self.P:
                    raise SpecError(
                        f"memory_bound needs one entry per processor (P={self.P}), "
                        f"got {len(bounds)}"
                    )
                object.__setattr__(self, "memory_bound", bounds)
            else:
                bounds = (float(self.memory_bound),)
                object.__setattr__(self, "memory_bound", bounds[0])
            # Mirror BspMachine's rule (strictly positive, finite) so a bad
            # bound fails at spec-construction time with a SpecError — and
            # never reaches JSON as non-compliant NaN/Infinity literals.
            if not all(math.isfinite(b) and b > 0 for b in bounds):
                raise SpecError("memory bounds must be finite and positive")
        given = [
            name
            for name, value in (("delta", self.delta), ("groups", self.groups), ("numa", self.numa))
            if value is not None
        ]
        if len(given) > 1:
            raise SpecError(
                f"machine spec sets conflicting NUMA descriptions: {', '.join(given)}; "
                "use at most one of delta, groups, numa"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_machine(cls, machine: BspMachine) -> "MachineSpec":
        """Spec capturing an existing machine (explicit matrix when non-uniform)."""
        memory_bound: Optional[Union[float, Tuple[float, ...]]] = None
        if machine.memory_bounds is not None:
            bounds = machine.memory_bounds
            if np.all(bounds == bounds[0]):
                memory_bound = float(bounds[0])
            else:
                memory_bound = tuple(float(b) for b in bounds)
        if machine.is_uniform:
            return cls(P=machine.P, g=machine.g, l=machine.l, memory_bound=memory_bound)
        return cls(
            P=machine.P,
            g=machine.g,
            l=machine.l,
            numa=tuple(map(tuple, np.asarray(machine.numa, dtype=np.float64).tolist())),
            memory_bound=memory_bound,
        )

    def build(self) -> BspMachine:
        """Materialize the machine this spec describes."""
        if self.numa is not None:
            machine = BspMachine(P=self.P, g=self.g, l=self.l, numa=np.asarray(self.numa, dtype=float))
        elif self.delta is not None:
            machine = BspMachine.hierarchical(P=self.P, delta=self.delta, g=self.g, l=self.l)
        elif self.groups is not None:
            machine = BspMachine.from_groups(
                self.groups, intra=self.intra, inter=self.inter, g=self.g, l=self.l
            )
        else:
            machine = BspMachine(P=self.P, g=self.g, l=self.l)
        if self.memory_bound is not None:
            machine = machine.with_memory_bound(self.memory_bound)
        return machine

    def describe(self) -> Dict[str, object]:
        """Flat summary used by sweep CSV exports (delta / memory_bound 0 when
        absent; per-processor bounds are summarized by their minimum, the
        binding constraint)."""
        if self.memory_bound is None:
            memory_bound = 0.0
        elif isinstance(self.memory_bound, tuple):
            memory_bound = float(min(self.memory_bound))
        else:
            memory_bound = float(self.memory_bound)
        return {
            "P": self.P,
            "g": self.g,
            "l": self.l,
            "delta": self.delta if self.delta is not None else 0,
            "memory_bound": memory_bound,
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (only the fields in use)."""
        out: Dict[str, Any] = {"P": self.P, "g": self.g, "l": self.l}
        if self.numa is not None:
            out["numa"] = [list(row) for row in self.numa]
        elif self.delta is not None:
            out["delta"] = self.delta
        elif self.groups is not None:
            out["groups"] = list(self.groups)
            out["intra"] = self.intra
            out["inter"] = self.inter
        if self.memory_bound is not None:
            out["memory_bound"] = (
                list(self.memory_bound)
                if isinstance(self.memory_bound, tuple)
                else self.memory_bound
            )
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineSpec":
        """Rebuild a spec written by :meth:`to_dict`."""
        memory_bound = data.get("memory_bound")
        if isinstance(memory_bound, (list, tuple)):
            memory_bound = tuple(memory_bound)
        return cls(
            P=data["P"],
            g=data.get("g", 1.0),
            l=data.get("l", 5.0),
            delta=data.get("delta"),
            groups=tuple(data["groups"]) if data.get("groups") is not None else None,
            intra=data.get("intra", 1.0),
            inter=data.get("inter", 4.0),
            numa=tuple(tuple(row) for row in data["numa"]) if data.get("numa") is not None else None,
            memory_bound=memory_bound,
        )


@dataclass(frozen=True)
class ProblemSpec:
    """One scheduling instance: a DAG source plus a machine description."""

    dag: DagSpec
    machine: MachineSpec

    @classmethod
    def from_instance(cls, dag: ComputationalDAG, machine: BspMachine) -> "ProblemSpec":
        """Spec embedding an in-memory (DAG, machine) pair inline."""
        return cls(dag=DagSpec.from_dag(dag), machine=MachineSpec.from_machine(machine))

    def build_dag(self) -> ComputationalDAG:
        return self.dag.build()

    def build_machine(self) -> BspMachine:
        return self.machine.build()

    def to_dict(self) -> Dict[str, Any]:
        return {"dag": self.dag.to_dict(), "machine": self.machine.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProblemSpec":
        try:
            dag = data["dag"]
            machine = data["machine"]
        except KeyError as exc:
            raise SpecError(f"problem spec is missing the {exc.args[0]!r} section") from exc
        return cls(dag=DagSpec.from_dict(dag), machine=MachineSpec.from_dict(machine))

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SolveRequest:
    """A problem spec plus the scheduler (spec string) that should solve it.

    ``seed`` and ``time_budget`` are merged into the scheduler spec when the
    scheduler's factory accepts ``seed`` / ``time_limit`` parameters and the
    spec string does not already set them (see
    :func:`repro.registry.canonical_scheduler_spec`).
    """

    spec: ProblemSpec
    scheduler: str = "framework"
    seed: Optional[int] = None
    time_budget: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheduler", str(self.scheduler).strip())
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.time_budget is not None:
            object.__setattr__(self, "time_budget", float(self.time_budget))
        if not self.scheduler:
            raise SpecError("solve requests need a non-empty scheduler spec")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"spec": self.spec.to_dict(), "scheduler": self.scheduler}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.time_budget is not None:
            out["time_budget"] = self.time_budget
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveRequest":
        if "spec" not in data:
            raise SpecError("solve request is missing the 'spec' section")
        return cls(
            spec=ProblemSpec.from_dict(data["spec"]),
            scheduler=data.get("scheduler", "framework"),
            seed=data.get("seed"),
            time_budget=data.get("time_budget"),
        )

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SolveRequest":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solved request.

    ``to_dict`` is deterministic by default: ``wall_seconds`` is only
    included with ``timing=True``, so results of parallel batches compare
    bytewise equal to serial runs of the same deterministic requests.
    """

    scheduler: str
    dag_name: str
    num_nodes: int
    machine: MachineSpec
    total_cost: float
    work_cost: float
    comm_cost: float
    latency_cost: float
    num_supersteps: int
    valid: bool = True
    wall_seconds: float = 0.0
    scheduler_description: str = ""
    deterministic: bool = True

    def to_dict(self, *, timing: bool = False) -> Dict[str, Any]:
        # Failed (tolerant-batch) results carry an infinite cost; JSON has no
        # Infinity literal, so non-finite costs serialize as null — strict
        # consumers (jq, JSON.parse) keep parsing every line of a batch.
        def _cost(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        out: Dict[str, Any] = {
            "scheduler": self.scheduler,
            "dag_name": self.dag_name,
            "num_nodes": self.num_nodes,
            "machine": self.machine.to_dict(),
            "total_cost": _cost(self.total_cost),
            "work_cost": _cost(self.work_cost),
            "comm_cost": _cost(self.comm_cost),
            "latency_cost": _cost(self.latency_cost),
            "num_supersteps": self.num_supersteps,
            "valid": self.valid,
            "scheduler_description": self.scheduler_description,
            "deterministic": self.deterministic,
        }
        if timing:
            out["wall_seconds"] = self.wall_seconds
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveResult":
        def _cost(value: Any) -> float:
            return float("inf") if value is None else float(value)

        return cls(
            scheduler=data["scheduler"],
            dag_name=data["dag_name"],
            num_nodes=int(data["num_nodes"]),
            machine=MachineSpec.from_dict(data["machine"]),
            total_cost=_cost(data["total_cost"]),
            work_cost=_cost(data["work_cost"]),
            comm_cost=_cost(data["comm_cost"]),
            latency_cost=_cost(data["latency_cost"]),
            num_supersteps=int(data["num_supersteps"]),
            valid=bool(data.get("valid", True)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            scheduler_description=data.get("scheduler_description", ""),
            deterministic=bool(data.get("deterministic", True)),
        )

    def to_json(self, *, timing: bool = False, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(timing=timing), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SolveResult":
        return cls.from_dict(json.loads(text))
