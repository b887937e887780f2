"""Runtime contract of ``Scheduler.deterministic``.

A run is reproducible unless a stage that actually runs has a wall-clock
limit, so each built scheduler answers from its resolved configuration and
``api.to_solve_result`` reports that answer.  These cases build every
registered name with its defaults, set each time-limit knob a name accepts,
and check nested specs through the API facade.
"""

import pytest

from repro import api
from repro.pipeline.config import PipelineConfig
from repro.registry import (
    available_schedulers,
    canonical_scheduler_spec,
    format_scheduler_spec,
    make_scheduler,
    parse_scheduler_spec,
    scheduler_info,
)
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest

#: Names whose default configuration runs a stage under a wall-clock limit.
WALL_CLOCK_DEFAULTS = {"framework", "multilevel", "ilp-full", "ilp-init", "adaptive"}

#: The work-limited paper pipeline and multilevel scheduler of the end-to-end
#: benchmark (``benchmarks/e2e/workloads.py``), copied as literals.
PIPELINE = "framework(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)"
MULTILEVEL = "multilevel(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)"

#: Nested specs whose wall-clock limit sits in an initializer or candidate.
NESTED_WALL_CLOCK = [
    "hc(init=ilp-full)",
    "hccs(init=framework)",
    'hc(init="hc(time_limit=0.5)")',
    "portfolio(candidates=[ilp-full])",
]

#: Every registered name (test-only registrations of other modules aside).
NAMES = [name for name in available_schedulers() if not name.startswith("test-")]


#: Pipeline knobs that switch every wall-clock limit off.
WORK_LIMITED = {"preset": "heuristics", "hc_time_limit": None, "hccs_time_limit": None}


def time_limit_specs(name: str):
    """One spec per wall-clock knob ``name`` accepts, each set to a number.

    A pipeline ``*_time_limit`` is set with its stage switched on and every
    other limit off, so each case shows that one knob alone.
    """
    info = scheduler_info(name)
    specs = []
    for param in info.parameters:
        if param in ("time_limit", "budget"):
            kwargs = {param: 1.0}
        elif param.endswith("_time_limit"):
            kwargs = dict(WORK_LIMITED, **{param: 1.0})
            switch = "use_" + param[: -len("_time_limit")]
            if switch in PipelineConfig.field_names():
                kwargs[switch] = True
        else:
            continue
        specs.append(format_scheduler_spec(name, kwargs))
    if info.accepts("mode"):
        specs.append(format_scheduler_spec(name, {"mode": "race"}))
    return specs


@pytest.mark.parametrize("name", NAMES)
def test_default_configuration(name):
    assert make_scheduler(name).deterministic is (name not in WALL_CLOCK_DEFAULTS)


@pytest.mark.parametrize(
    "spec", [spec for name in NAMES for spec in time_limit_specs(name)]
)
def test_each_wall_clock_knob_clears_the_property(spec):
    assert make_scheduler(spec).deterministic is False


def test_every_wall_clock_knob_is_covered():
    specs = {spec for name in NAMES for spec in time_limit_specs(name)}
    assert "hc(time_limit=1.0)" in specs
    assert "portfolio(budget=1.0)" in specs and "portfolio(mode=race)" in specs
    for name in ("framework", "multilevel"):
        knobs = [p for p in scheduler_info(name).parameters if p.endswith("_time_limit")]
        assert len(knobs) == 6, knobs
        assert sum(spec.startswith(name + "(") for spec in specs) == 6


@pytest.mark.parametrize(
    "spec",
    [
        PIPELINE,
        MULTILEVEL,
        # The heuristics preset keeps numeric ILP limits with the stages off.
        format_scheduler_spec("framework", dict(WORK_LIMITED, ilp_full_time_limit=5.0)),
        "ilp-full(time_limit=none)",
        "ilp-init(time_limit=none)",
        "hc(init=ilp-init(time_limit=none))",
        "portfolio(candidates=[etf, ilp-full])",
    ],
)
def test_work_limited_runs_are_deterministic(spec):
    assert make_scheduler(spec).deterministic is True


@pytest.mark.parametrize("spec", NESTED_WALL_CLOCK)
def test_nested_wall_clock_limit_clears_the_property(spec):
    assert make_scheduler(spec).deterministic is False


@pytest.fixture(scope="module")
def tiny_spec() -> ProblemSpec:
    return ProblemSpec(
        dag=DagSpec.generator("spmv", n=2, q=0.3, seed=4),
        machine=MachineSpec(P=2, g=2, l=3),
    )


def test_facade_reports_the_property(tiny_spec):
    specs = [PIPELINE, MULTILEVEL, "framework"] + NESTED_WALL_CLOCK
    results = api.solve_many([SolveRequest(spec=tiny_spec, scheduler=s) for s in specs])
    assert all(result.valid for result in results)
    assert [result.deterministic for result in results] == [True, True] + [False] * 5


@pytest.mark.parametrize("spec", ["hc(init=nosuch)", "nosuch"])
def test_unknown_scheduler_stays_an_invalid_result(tiny_spec, spec):
    (result,) = api.solve_many([SolveRequest(spec=tiny_spec, scheduler=spec)], tolerant=True)
    assert result.valid is False
    assert "unknown scheduler 'nosuch'" in result.scheduler_description
    assert result.deterministic is False


@pytest.mark.parametrize("spec", [PIPELINE, MULTILEVEL])
def test_benchmark_specs_canonicalize_unchanged(spec):
    name, kwargs = parse_scheduler_spec(spec)
    assert canonical_scheduler_spec(spec) == format_scheduler_spec(name, kwargs)
