"""Independent checks the tests use as oracles for scheduler and ILP output.

``processor_overlaps`` checks a classical (time-based) schedule and
``constraint_violations`` checks an ILP assignment, each by a plain loop
over the definition, so that they share no code with the scheduler or
solver they judge.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ilp.model import IlpModel
from repro.model.classical import ClassicalSchedule


def processor_overlaps(classical: ClassicalSchedule) -> List[str]:
    """Pairs of nodes that overlap in time on the same processor."""
    errors: List[str] = []
    fin = classical.finish
    start = classical.start
    for p in range(classical.machine.P):
        nodes = [v for v in range(classical.dag.n) if classical.proc[v] == p]
        nodes.sort(key=lambda v: start[v])
        for a, b in zip(nodes, nodes[1:]):
            if fin[a] > start[b] + 1e-9:
                errors.append(
                    f"nodes {a} and {b} overlap on processor {p}: "
                    f"[{start[a]}, {fin[a]}) vs [{start[b]}, {fin[b]})"
                )
    return errors


def constraint_violations(model: IlpModel, x: Sequence[float], tol: float = 1e-6) -> List[str]:
    """Constraints of ``model`` that the assignment ``x`` violates."""
    x = np.asarray(x, dtype=np.float64)
    violations: List[str] = []
    for cons in model.constraints:
        value = sum(coeff * x[i] for i, coeff in cons.coeffs.items())
        if value < cons.lb - tol or value > cons.ub + tol:
            violations.append(
                f"{cons.name or 'constraint'}: value {value} outside [{cons.lb}, {cons.ub}]"
            )
    return violations
