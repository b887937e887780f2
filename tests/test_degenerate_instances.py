"""Every registered scheduler returns a valid schedule on degenerate instances.

The instances are the empty DAG, a single node and a chain whose work and
communication weights are all zero; the machines are one processor, two
uniform processors and a four-processor NUMA hierarchy.
"""

from __future__ import annotations

import math

import pytest

from repro.graphs.dag import ComputationalDAG
from repro.model.machine import BspMachine
from repro.registry import available_schedulers, make_scheduler

INSTANCES = {
    "empty": lambda: ComputationalDAG(0, []),
    "one-node": lambda: ComputationalDAG(1, [], work=[3], comm=[2]),
    "zero-chain": lambda: ComputationalDAG(
        4, [(0, 1), (1, 2), (2, 3)], work=[0, 0, 0, 0], comm=[0, 0, 0, 0]
    ),
}

MACHINES = {
    "P1": lambda: BspMachine(P=1, g=2, l=3),
    "P2": lambda: BspMachine(P=2, g=2, l=3),
    "numa-P4": lambda: BspMachine.hierarchical(P=4, delta=2, g=1, l=5),
}

#: The ILP schedulers default to long wall-clock limits; keep them short.
SPECS = {
    "ilp-init": "ilp-init(time_limit=10)",
    "ilp-full": "ilp-full(time_limit=10)",
}


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("name", available_schedulers())
def test_scheduler_handles_degenerate_instance(name, instance, machine_name):
    dag = INSTANCES[instance]()
    machine = MACHINES[machine_name]()
    schedule = make_scheduler(SPECS.get(name, name)).schedule(dag, machine)
    schedule.validate()
    cost = float(schedule.cost())
    assert math.isfinite(cost) and cost >= 0.0
