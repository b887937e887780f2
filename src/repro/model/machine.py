"""BSP machine model with optional NUMA extension.

A machine (paper Sections 3.2 and 3.4) is described by:

* ``P``  — number of processors,
* ``g``  — time cost of sending a single unit of data,
* ``l``  — latency (fixed overhead) of every superstep,
* ``numa`` — an optional ``P x P`` matrix of per-pair communication cost
  coefficients ``lambda[p1, p2]``.  The uniform (non-NUMA) case corresponds
  to ``lambda[p1, p2] = 1`` for ``p1 != p2`` and ``0`` on the diagonal.

The paper's NUMA experiments use a binary-tree hierarchy over the processors
where the per-unit cost grows by a factor ``delta`` for every level of the
hierarchy that a message has to cross; :meth:`BspMachine.hierarchical`
constructs exactly that matrix.

The *memory-constrained* model variant additionally gives every processor a
memory bound: the total memory weight of the nodes co-resident on a
processor must not exceed its bound.  The optional ``memory_bound``
attribute (a scalar applied to every processor, or one value per processor)
carries that constraint; schedulers that are memory-aware consult it through
:attr:`BspMachine.memory_bounds`, and schedule validation enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["BspMachine", "MachineValidationError", "MEMORY_EPS"]

#: Shared feasibility tolerance of the memory-constrained model: every layer
#: that compares memory usage against a bound (schedule validation, greedy
#: placement, local-search move filter, repair) uses this same epsilon, so a
#: placement admitted by one layer is never rejected by another.
MEMORY_EPS = 1e-9


class MachineValidationError(ValueError):
    """Raised for invalid machine descriptions."""


@dataclass
class BspMachine:
    """Description of the target architecture in the (NUMA-extended) BSP model."""

    P: int
    g: float = 1.0
    l: float = 0.0
    numa: Optional[np.ndarray] = None
    #: Per-processor memory bound of the memory-constrained model variant;
    #: ``None`` (the default) disables the constraint.  A scalar is broadcast
    #: to every processor; a sequence must have one entry per processor.
    memory_bound: Optional[object] = None

    def __post_init__(self) -> None:
        if self.P <= 0:
            raise MachineValidationError("P must be positive")
        if self.g < 0 or self.l < 0:
            raise MachineValidationError("g and l must be non-negative")
        if self.memory_bound is not None:
            bounds = np.asarray(self.memory_bound, dtype=np.float64)
            if bounds.ndim == 0:
                bounds = np.full(self.P, float(bounds))
            if bounds.shape != (self.P,):
                raise MachineValidationError(
                    "memory_bound must be a scalar or have one entry per processor "
                    f"(P={self.P}), got shape {bounds.shape}"
                )
            # Strictly positive so that 0 can unambiguously mean "unbounded"
            # in flat exports (MachineSpec.describe, sweep CSV columns).
            if not np.all(np.isfinite(bounds)) or np.any(bounds <= 0):
                raise MachineValidationError("memory bounds must be finite and positive")
            self.memory_bound = bounds
        if self.numa is None:
            numa = np.ones((self.P, self.P), dtype=np.float64)
            np.fill_diagonal(numa, 0.0)
            self.numa = numa
            self._uniform = True
        else:
            numa = np.asarray(self.numa, dtype=np.float64).copy()
            if numa.shape != (self.P, self.P):
                raise MachineValidationError(
                    f"NUMA matrix must be {self.P}x{self.P}, got {numa.shape}"
                )
            if np.any(numa < 0):
                raise MachineValidationError("NUMA coefficients must be non-negative")
            if np.any(np.diag(numa) != 0):
                raise MachineValidationError("NUMA diagonal (self-communication) must be 0")
            self.numa = numa
            off_diag = numa[~np.eye(self.P, dtype=bool)]
            self._uniform = bool(off_diag.size == 0 or np.all(off_diag == 1.0))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, P: int, g: float = 1.0, l: float = 0.0) -> "BspMachine":
        """Classic BSP machine with uniform inter-processor costs."""
        return cls(P=P, g=g, l=l)

    @classmethod
    def hierarchical(
        cls, P: int, delta: float, g: float = 1.0, l: float = 0.0
    ) -> "BspMachine":
        """Binary-tree NUMA hierarchy over ``P`` processors (paper Section 6).

        Processors are the leaves of a complete binary tree; the per-unit
        cost between two processors is ``delta ** (levels_crossed - 1)`` where
        ``levels_crossed`` is the height of their lowest common ancestor.
        With ``P = 8`` and ``delta = 3`` this gives ``lambda[0, 1] = 1``,
        ``lambda[0, 2] = lambda[0, 3] = 3`` and ``lambda[0, p] = 9`` for
        ``p in {4..7}``, matching the example in the paper.
        """
        if P < 1:
            raise MachineValidationError("P must be positive")
        if P & (P - 1) != 0:
            raise MachineValidationError("hierarchical machines require P to be a power of two")
        if delta <= 0:
            raise MachineValidationError("delta must be positive")
        # The LCA height is the bit length of p1 ^ p2 (frexp's exponent; 0
        # on the diagonal), and indexes the python floats delta ** (height-1).
        ids = np.arange(P)
        height = np.frexp(ids[:, None] ^ ids[None, :])[1]
        powers = [0.0] + [float(delta) ** k for k in range(int(P).bit_length() - 1)]
        numa = np.array(powers, dtype=np.float64)[height]
        return cls(P=P, g=g, l=l, numa=numa)

    @classmethod
    def from_groups(
        cls,
        group_sizes: Sequence[int],
        intra: float = 1.0,
        inter: float = 4.0,
        g: float = 1.0,
        l: float = 0.0,
    ) -> "BspMachine":
        """Two-level NUMA machine: cheap within a group, expensive across.

        Useful for modelling multi-socket nodes (a coarser alternative to the
        binary-tree hierarchy).
        """
        P = int(sum(group_sizes))
        if P <= 0:
            raise MachineValidationError("total processor count must be positive")
        group = np.zeros(P, dtype=np.int64)
        idx = 0
        for gi, size in enumerate(group_sizes):
            if size <= 0:
                raise MachineValidationError("group sizes must be positive")
            group[idx : idx + size] = gi
            idx += size
        numa = np.where(group[:, None] == group[None, :], float(intra), float(inter))
        np.fill_diagonal(numa, 0.0)
        return cls(P=P, g=g, l=l, numa=numa)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_uniform(self) -> bool:
        """True if all off-diagonal NUMA coefficients equal 1 (plain BSP)."""
        return self._uniform

    @property
    def has_memory_bounds(self) -> bool:
        """True if the machine carries per-processor memory bounds."""
        return self.memory_bound is not None

    @property
    def memory_bounds(self) -> Optional[np.ndarray]:
        """Per-processor memory bounds as a float array, or ``None``."""
        return self.memory_bound

    def with_memory_bound(self, bound: Optional[object]) -> "BspMachine":
        """Copy of this machine with the memory bound replaced (``None`` clears)."""
        return BspMachine(
            P=self.P, g=self.g, l=self.l, numa=self.numa.copy(), memory_bound=bound
        )

    def without_memory_bound(self) -> "BspMachine":
        """Copy of this machine with no memory constraint."""
        return self.with_memory_bound(None)

    def coefficient(self, p1: int, p2: int) -> float:
        """Per-unit cost ``lambda[p1, p2]`` of sending data from p1 to p2."""
        return float(self.numa[p1, p2])

    def average_coefficient(self) -> float:
        """Average off-diagonal NUMA coefficient.

        The paper's BL-EST/ETF baselines use this average to estimate
        communication delays when NUMA effects are present (Appendix A.1).
        """
        if self.P == 1:
            return 0.0
        mask = ~np.eye(self.P, dtype=bool)
        return float(np.mean(self.numa[mask]))

    def max_coefficient(self) -> float:
        """Largest pairwise NUMA coefficient."""
        return float(np.max(self.numa))

    def describe(self) -> str:
        """One-line human readable summary."""
        kind = "uniform" if self.is_uniform else "NUMA"
        mem = ""
        if self.memory_bound is not None:
            bounds = self.memory_bound
            if np.all(bounds == bounds[0]):
                mem = f", mem<={bounds[0]:g}"
            else:
                mem = f", mem<=[{', '.join(f'{b:g}' for b in bounds)}]"
        return f"BspMachine(P={self.P}, g={self.g}, l={self.l}, {kind}{mem})"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()
