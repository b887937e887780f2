"""BSP schedules: node-to-(processor, superstep) assignment plus Gamma.

A BSP schedule (paper Section 3.2) consists of

* ``pi``  — assignment of nodes to processors (``proc`` array here),
* ``tau`` — assignment of nodes to supersteps (``step`` array here),
* ``Gamma`` — the communication schedule, a set of ``(v, p1, p2, s)`` steps.

Heuristic schedulers typically produce only ``pi``/``tau`` and rely on the
*lazy* communication schedule (every value sent directly from its producer in
the last possible communication phase); :meth:`BspSchedule.lazy_comm_schedule`
derives it.  The communication-schedule optimizers (HCcs, ILPcs) attach an
explicit, optimized Gamma instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from .comm import CommSchedule
from .machine import MEMORY_EPS, BspMachine

__all__ = ["BspSchedule", "ScheduleValidationError", "legalize_superstep_assignment"]


def legalize_superstep_assignment(
    dag: ComputationalDAG, proc: np.ndarray, step: np.ndarray
) -> np.ndarray:
    """Return the smallest superstep assignment >= ``step`` that is valid.

    Given a fixed processor assignment, a superstep assignment combined with
    the lazy communication schedule is valid iff for every edge ``(u, v)``
    we have ``step[u] <= step[v]`` when both endpoints share a processor and
    ``step[u] < step[v]`` otherwise.  This pass raises supersteps in
    topological order until both conditions hold; it never lowers a step.
    Several schedulers (HDagg wavefront repair, multilevel projection) use it
    as a final legalization step.
    """
    out = np.asarray(step, dtype=np.int64).tolist()
    where = np.asarray(proc, dtype=np.int64).tolist()
    parents = dag.parents
    # One sweep over plain lists: a node's parents are final when it is
    # reached, so each node is raised at most once.
    for v in dag.topological_order():
        pv = where[v]
        required = out[v]
        for u in parents(v):
            r = out[u] + (where[u] != pv)
            if r > required:
                required = r
        out[v] = required
    return np.array(out, dtype=np.int64)


class ScheduleValidationError(ValueError):
    """Raised when a schedule violates the BSP validity conditions."""


@dataclass
class BspSchedule:
    """A (possibly partial-Gamma) BSP schedule of a DAG on a machine."""

    dag: ComputationalDAG
    machine: BspMachine
    proc: np.ndarray
    step: np.ndarray
    comm: Optional[CommSchedule] = None

    def __post_init__(self) -> None:
        self.proc = np.asarray(self.proc, dtype=np.int64).copy()
        self.step = np.asarray(self.step, dtype=np.int64).copy()
        if len(self.proc) != self.dag.n or len(self.step) != self.dag.n:
            raise ScheduleValidationError("proc/step arrays must have one entry per node")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, dag: ComputationalDAG, machine: BspMachine) -> "BspSchedule":
        """The trivial schedule: every node on processor 0 in superstep 0.

        The paper uses this as the sanity baseline in communication-dominated
        settings (Section 7.3): a sequential execution with a single
        superstep and no communication at all.
        """
        return cls(
            dag=dag,
            machine=machine,
            proc=np.zeros(dag.n, dtype=np.int64),
            step=np.zeros(dag.n, dtype=np.int64),
        )

    @classmethod
    def from_assignment(
        cls,
        dag: ComputationalDAG,
        machine: BspMachine,
        proc: Sequence[int],
        step: Sequence[int],
        comm: Optional[CommSchedule] = None,
    ) -> "BspSchedule":
        """Build a schedule from explicit assignment arrays."""
        return cls(dag=dag, machine=machine, proc=np.asarray(proc), step=np.asarray(step), comm=comm)

    def copy(self) -> "BspSchedule":
        return BspSchedule(
            dag=self.dag,
            machine=self.machine,
            proc=self.proc.copy(),
            step=self.step.copy(),
            comm=self.comm.copy() if self.comm is not None else None,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        """Number of supersteps spanned by the schedule (computation and
        communication phases included)."""
        if self.dag.n == 0:
            return 0
        last = int(self.step.max()) if self.dag.n else -1
        if self.comm is not None and len(self.comm) > 0:
            last = max(last, self.comm.max_step())
        return last + 1

    def nodes_in_superstep(self, s: int) -> List[int]:
        """Nodes whose computation is assigned to superstep ``s``."""
        return np.flatnonzero(self.step == s).tolist()

    def nodes_on_processor(self, p: int) -> List[int]:
        """Nodes assigned to processor ``p``."""
        return np.flatnonzero(self.proc == p).tolist()

    def superstep_blocks(
        self, num_steps: int, tiebreak: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Nodes grouped by superstep, from one stable sort.

        Returns ``(order, bounds)``: ``order[bounds[s]:bounds[s + 1]]`` are
        the nodes of superstep ``s`` for ``s < num_steps``, in increasing
        node id (as :meth:`nodes_in_superstep` lists them) or, when given,
        in increasing ``tiebreak`` value.
        """
        if tiebreak is None:
            order = np.argsort(self.step, kind="stable")
        else:
            order = np.lexsort((tiebreak, self.step))
        bounds = np.searchsorted(self.step[order], np.arange(num_steps + 1))
        return order, bounds

    def assignment(self, v: int) -> Tuple[int, int]:
        """``(processor, superstep)`` of node ``v``."""
        return int(self.proc[v]), int(self.step[v])

    def memory_usage(self) -> np.ndarray:
        """Total memory weight of the nodes co-resident on each processor."""
        if self.dag.n == 0:
            return np.zeros(self.machine.P, dtype=np.float64)
        return np.bincount(
            self.proc,
            weights=np.asarray(self.dag.memory, dtype=np.float64),
            minlength=self.machine.P,
        )

    # ------------------------------------------------------------------
    # Communication handling
    # ------------------------------------------------------------------
    def required_transfers(self) -> Dict[Tuple[int, int], int]:
        """Values that must cross processors, with their deadline superstep.

        Returns a dict mapping ``(node u, target processor p)`` to the first
        superstep in which some successor of ``u`` assigned to ``p`` is
        computed.  The value of ``u`` must therefore arrive at ``p`` in the
        communication phase of some *earlier* superstep.
        """
        needed: Dict[Tuple[int, int], int] = {}
        if self.dag.num_edges == 0:
            return needed
        # Vectorized extraction of the cross-processor edges; the python
        # fold below only sees those (usually a small fraction of all edges)
        # and preserves the first-occurrence ordering of the edge list.
        eu, ev = self.dag.edge_sources, self.dag.edge_targets
        cross = self.proc[eu] != self.proc[ev]
        if not np.any(cross):
            return needed
        for u, q, sv in zip(
            eu[cross].tolist(),
            self.proc[ev[cross]].tolist(),
            self.step[ev[cross]].tolist(),
        ):
            key = (u, q)
            prev = needed.get(key)
            if prev is None or sv < prev:
                needed[key] = sv
        return needed

    def lazy_transfers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The lazy Gamma as arrays ``(u, p_from, p_to, step)``.

        One entry per :meth:`required_transfers` key ``(u, p_to)``, sent
        from ``p_from = proc[u]`` in superstep ``deadline - 1``.  Entries are
        in ascending ``(u, p_to)`` order, which is the order of
        ``sorted(self.lazy_comm_schedule().entries)``: the cross-processor
        edges sorted by ``(u, p_to, tau(v))``, keeping each pair's first.
        """
        eu, ev = self.dag.edge_sources, self.dag.edge_targets
        p_to = self.proc[ev]
        cross = self.proc[eu] != p_to
        u, p_to, deadline = eu[cross], p_to[cross], self.step[ev[cross]]
        order = np.lexsort((deadline, p_to, u))
        u, p_to, deadline = u[order], p_to[order], deadline[order]
        first = np.ones(u.size, dtype=bool)
        first[1:] = (u[1:] != u[:-1]) | (p_to[1:] != p_to[:-1])
        u = u[first]
        return u, self.proc[u], p_to[first], deadline[first] - 1

    def lazy_comm_schedule(self) -> CommSchedule:
        """The lazy Gamma: each required value sent directly from its
        producer in the last possible communication phase (deadline - 1)."""
        comm = CommSchedule()
        for (u, p_target), first_needed in self.required_transfers().items():
            comm.add(u, int(self.proc[u]), p_target, first_needed - 1)
        return comm

    def effective_comm_schedule(self) -> CommSchedule:
        """The explicit Gamma if attached, otherwise the lazy one."""
        if self.comm is not None:
            return self.comm
        return self.lazy_comm_schedule()

    def with_lazy_comm(self) -> "BspSchedule":
        """Copy of the schedule with the lazy Gamma attached explicitly."""
        out = self.copy()
        out.comm = self.lazy_comm_schedule()
        return out

    def without_comm(self) -> "BspSchedule":
        """Copy with the explicit Gamma dropped (revert to implicit lazy)."""
        out = self.copy()
        out.comm = None
        return out

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validation_errors(self) -> List[str]:
        """Check the BSP validity conditions; return a list of violations.

        An empty list means the schedule is valid.  The two conditions from
        paper Section 3.2 are checked, using the effective (explicit or lazy)
        communication schedule:

        1. for every edge ``(u, v)``: if both endpoints are on the same
           processor then ``tau(u) <= tau(v)``; otherwise the value of ``u``
           must be delivered to ``proc(v)`` strictly before superstep
           ``tau(v)``;
        2. every communication step must send a value that is actually
           present on the sending processor at that time (either computed
           there early enough or received by an earlier communication step);
        3. when the machine carries per-processor memory bounds (the
           memory-constrained model variant), the total memory weight of the
           nodes co-resident on each processor must not exceed its bound.

        For a schedule without an explicit Gamma the precedence and
        communication checks reduce to one vectorized test: every edge
        ``(u, v)`` needs ``tau(u) <= tau(v)`` on one processor and
        ``tau(u) < tau(v)`` across processors.  Proof: the lazy Gamma holds
        exactly one entry ``(u, pi(u), q, d - 1)`` per value ``u`` needed on
        another processor ``q``, where ``d`` is the smallest ``tau(v)`` over
        the cross edges ``(u, v)`` with ``pi(v) = q``.  That entry is the
        only way ``u`` reaches ``q``, so its arrival ``d - 1 < tau(v)``
        satisfies condition 1 for each of those edges; condition 2 (and the
        non-negative step check) fails for it iff ``tau(u) > d - 1``, i.e.
        iff some cross edge has ``tau(u) >= tau(v)``.  Same-processor edges
        are checked directly.  Only when the test fails (or Gamma is
        explicit) does the entry-by-entry loop below run, to report each
        violation.
        """
        errors: List[str] = []
        P = self.machine.P
        n = self.dag.n
        if n == 0:
            return errors
        if np.any(self.proc < 0) or np.any(self.proc >= P):
            errors.append("processor assignment out of range")
            return errors
        if np.any(self.step < 0):
            errors.append("negative superstep assignment")
            return errors

        bounds = self.machine.memory_bounds
        if bounds is not None:
            usage = self.memory_usage()
            for p in np.nonzero(usage > bounds + MEMORY_EPS)[0]:
                errors.append(
                    f"memory bound exceeded on processor {int(p)}: "
                    f"{usage[p]:g} > {bounds[p]:g}"
                )

        if self.comm is None:
            eu, ev = self.dag.edge_sources, self.dag.edge_targets
            late = self.step[eu] + (self.proc[eu] != self.proc[ev]) > self.step[ev]
            if not late.any():
                return errors

        comm = self.effective_comm_schedule()

        # presence[v] = dict processor -> earliest superstep at whose *end*
        # (i.e. after its communication phase) the value of v is available
        # there.  The producer has it available from its own compute step.
        available: Dict[int, Dict[int, int]] = {v: {} for v in range(n)}
        for v in range(n):
            available[v][int(self.proc[v])] = int(self.step[v])

        # Process communication entries in superstep order and check their
        # own validity while building up availability.
        for (v, p1, p2, s) in sorted(comm, key=lambda e: e[3]):
            if not (0 <= v < n) or not (0 <= p1 < P) or not (0 <= p2 < P):
                errors.append(f"communication entry {(v, p1, p2, s)} out of range")
                continue
            if s < 0:
                errors.append(f"communication entry {(v, p1, p2, s)} has negative superstep")
                continue
            src_avail = available[v].get(p1)
            # The value can be sent from p1 in superstep s if it was computed
            # on p1 in superstep <= s, or received on p1 in a superstep < s.
            ok = False
            if p1 == int(self.proc[v]) and int(self.step[v]) <= s:
                ok = True
            elif src_avail is not None and src_avail < s:
                ok = True
            if not ok:
                errors.append(
                    f"communication entry {(v, p1, p2, s)} sends a value not present on "
                    f"processor {p1} at superstep {s}"
                )
            prev = available[v].get(p2)
            if prev is None or s < prev:
                available[v][p2] = s

        # Precedence constraints.
        for (u, v) in self.dag.edges:
            pu, pv = int(self.proc[u]), int(self.proc[v])
            su, sv = int(self.step[u]), int(self.step[v])
            if pu == pv:
                if su > sv:
                    errors.append(
                        f"edge ({u}, {v}) violated: both on processor {pu} but "
                        f"tau({u})={su} > tau({v})={sv}"
                    )
            else:
                arrival = available[u].get(pv)
                if arrival is None or arrival >= sv:
                    errors.append(
                        f"edge ({u}, {v}) violated: value of {u} not delivered to "
                        f"processor {pv} before superstep {sv}"
                    )
        return errors

    def is_valid(self) -> bool:
        """True iff the schedule satisfies all BSP validity conditions."""
        return not self.validation_errors()

    def validate(self) -> None:
        """Raise :class:`ScheduleValidationError` if the schedule is invalid."""
        errors = self.validation_errors()
        if errors:
            raise ScheduleValidationError("; ".join(errors[:5]))

    # ------------------------------------------------------------------
    # Cost (delegates to repro.model.cost)
    # ------------------------------------------------------------------
    def cost(self) -> float:
        """Total BSP+NUMA cost of the schedule (paper Section 3.3)."""
        from .cost import evaluate

        return evaluate(self).total

    def cost_breakdown(self):
        """Full per-superstep cost breakdown (see :mod:`repro.model.cost`)."""
        from .cost import evaluate

        return evaluate(self)

    # ------------------------------------------------------------------
    # Normalization helpers
    # ------------------------------------------------------------------
    def normalized(self) -> "BspSchedule":
        """Copy with empty supersteps removed (step indices compacted).

        Local search can empty out a superstep entirely; compacting keeps the
        latency term consistent with the number of supersteps that actually
        occur.  Comm entries are shifted accordingly.
        """
        used = set(int(s) for s in self.step)
        comm = self.effective_comm_schedule() if self.comm is not None else None
        if comm is not None:
            used.update(e[3] for e in comm)
        order = sorted(used)
        remap = {s: i for i, s in enumerate(order)}
        new_step = np.array([remap[int(s)] for s in self.step], dtype=np.int64)
        new_comm = None
        if comm is not None:
            new_comm = CommSchedule()
            for (v, p1, p2, s) in comm:
                new_comm.add(v, p1, p2, remap[s])
        return BspSchedule(self.dag, self.machine, self.proc.copy(), new_step, new_comm)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BspSchedule(n={self.dag.n}, P={self.machine.P}, "
            f"supersteps={self.num_supersteps}, "
            f"comm={'explicit' if self.comm is not None else 'lazy'})"
        )
