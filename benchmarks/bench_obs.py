"""Disabled-tracer overhead guard for the observability layer.

The HC / comm-HC workloads here are byte-for-byte the ones in
``bench_core_micro.py`` — same fixtures, same benchmark *names* — but run
with the tracer explicitly uninstalled, i.e. on the no-op path every
untraced solve takes.  ``check_regression.py --overhead-suite bench_obs``
joins these numbers against the pre-instrumentation ``bench_core_micro``
entries of the committed baseline (``BENCH_pr9``), so the ratio isolates
the price of the disabled tracing hooks; the gate holds it under a 2%
geomean.

The remaining benchmarks pin the absolute cost of the observability
primitives themselves (no-op span entry, disabled-hook guard, counter and
histogram throughput) so a regression there is visible before it shows up
in a solver hot path.
"""

import pytest

from repro.baselines.hdagg import HDaggScheduler
from repro.graphs.fine import exp_dag
from repro.localsearch.comm_hill_climbing import comm_hill_climb
from repro.localsearch.hill_climbing import hill_climb
from repro.model.machine import BspMachine
from repro.obs import trace as trace_mod
from repro.obs.metrics import Counter, Histogram


@pytest.fixture(autouse=True)
def tracer_disabled():
    """Every benchmark here measures the *disabled* path."""
    trace_mod.uninstall()
    assert not trace_mod.enabled()
    yield
    trace_mod.uninstall()


@pytest.fixture(scope="module")
def dag():
    return exp_dag(10, k=3, q=0.25, seed=13)


@pytest.fixture(scope="module")
def machine():
    return BspMachine(P=8, g=3, l=5)


@pytest.fixture(scope="module")
def hdagg_schedule(dag, machine):
    return HDaggScheduler().schedule(dag, machine)


# ----------------------------------------------------------------------
# The instrumented solver hot paths, tracer off (joined against the
# pre-instrumentation bench_core_micro baseline by the overhead gate).
# ----------------------------------------------------------------------
def test_hill_climbing_hot_path(benchmark, hdagg_schedule):
    """The HC hot loop with its telemetry hooks compiled in but disabled."""
    result = benchmark.pedantic(
        lambda: hill_climb(hdagg_schedule), rounds=5, iterations=1
    )
    assert result.schedule.is_valid()
    assert result.final_cost <= result.initial_cost


def test_comm_hill_climbing(benchmark, hdagg_schedule):
    result = benchmark.pedantic(
        lambda: comm_hill_climb(hdagg_schedule), rounds=5, iterations=1
    )
    assert result.schedule.is_valid()


# ----------------------------------------------------------------------
# Absolute cost of the observability primitives
# ----------------------------------------------------------------------
def test_noop_span_entry(benchmark):
    """Entering/exiting the shared no-op span 1000 times."""

    def spin():
        for _ in range(1000):
            with trace_mod.span("x", k=1):
                pass

    benchmark(spin)
    assert trace_mod.span("a") is trace_mod.span("b")  # still the singleton


def test_disabled_hook_guard(benchmark):
    """The `if enabled():` guard instrumented code pays per hook site."""

    def spin():
        fired = 0
        for _ in range(1000):
            if trace_mod.enabled():
                fired += 1  # pragma: no cover - tracer is off
            trace_mod.event("e", cost=1.0)
        return fired

    assert benchmark(spin) == 0


def test_counter_inc_throughput(benchmark):
    counter = Counter("bench_counter")

    def spin():
        for _ in range(1000):
            counter.inc()

    benchmark(spin)
    assert counter.value >= 1000


def test_histogram_observe_throughput(benchmark):
    hist = Histogram("bench_hist", window=256)

    def spin():
        for k in range(1000):
            hist.observe(float(k))

    benchmark(spin)
    assert len(hist.values()) == 256
