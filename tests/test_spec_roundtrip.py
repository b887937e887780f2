"""Acceptance round trips of the declarative solve API (ISSUE 2).

Three guarantees, verified end to end:

* every scheduler in ``available_schedulers()`` is constructible from a
  spec string, and every spec string canonicalizes to a stable fixed point;
* parameterized spec strings (framework, multilevel, local-search entries)
  parse back to an equivalent configuration;
* ``api.solve_many(jobs=2)`` and ``python -m repro batch --jobs 2`` produce
  byte-identical results to a serial ``api.solve`` loop on deterministic
  schedulers.
"""

import pytest

from repro import api
from repro.cli import main
from repro.pipeline.config import PipelineConfig
from repro.registry import (
    available_schedulers,
    canonical_scheduler_spec,
    format_scheduler_spec,
    make_scheduler,
    parse_scheduler_spec,
    scheduler_info,
)
from repro.scheduler import Scheduler
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest


@pytest.fixture
def spmv_spec() -> ProblemSpec:
    return ProblemSpec(
        dag=DagSpec.generator("spmv", n=6, q=0.3, seed=4),
        machine=MachineSpec(P=2, g=2, l=3),
    )


#: Deterministic schedulers cheap enough to batch in tests (spec strings,
#: including one parameterized form each for a framework entry, a multilevel
#: entry and the local-search entries).
DETERMINISTIC_SPECS = [
    "cilk",
    "cilk(seed=3)",
    "hdagg(aggregation_factor=3.0)",
    "bl-est",
    "etf",
    "trivial",
    "level-rr",
    "bspg(idle_fraction=0.25)",
    "source",
    "hc(max_moves=50, init=source)",
    "hccs(max_moves=20)",
    "sa(steps=40, seed=7)",
]


class TestEverySchedulerConstructible:
    def test_every_registered_name_is_a_valid_spec(self):
        for name in available_schedulers():
            scheduler = make_scheduler(name)
            assert isinstance(scheduler, Scheduler), name

    def test_every_registered_name_has_metadata(self):
        for name in available_schedulers():
            info = scheduler_info(name)
            assert info.description, name
            assert isinstance(make_scheduler(name).deterministic, bool)
            assert isinstance(info.numa_aware, bool)

    def test_canonical_spec_is_a_fixed_point(self):
        specs = DETERMINISTIC_SPECS + [
            "framework(preset=fast, hc_max_moves=10)",
            "multilevel(min_coarse_nodes=16, coarsening_ratios=[0.3, 0.15])",
        ]
        for spec in specs:
            canonical = canonical_scheduler_spec(spec)
            assert canonical_scheduler_spec(canonical) == canonical, spec
            name, kwargs = parse_scheduler_spec(canonical)
            assert format_scheduler_spec(name, kwargs) == canonical, spec

    def test_preset_values_share_one_canonical_spec(self):
        specs = [
            "framework",
            "framework(preset=fast)",
            "framework(preset=fast, hc_max_moves=200)",
        ]
        assert {canonical_scheduler_spec(spec) for spec in specs} == {"framework"}
        assert canonical_scheduler_spec("multilevel(preset=FAST, min_coarse_nodes=8)") == "multilevel"
        # Knobs that differ from the preset, and other presets, stay.
        assert canonical_scheduler_spec("framework(hc_max_moves=100)") == "framework(hc_max_moves=100)"
        assert (
            canonical_scheduler_spec("framework(preset=Heuristics, use_ilp_full=false)")
            == "framework(preset=heuristics)"
        )
        # Any factory default is dropped, and init= specs canonicalize in turn.
        pairs = [
            ("hc", "hc(init=bspg)"),
            ("hc(init=framework)", "hc(init=framework(preset=fast))"),
            ("hccs", 'hccs(init="bspg(idle_fraction=0.5)", max_moves=none)'),
            ("sa(init=source)", "sa(init=source, seed=0, steps=2000)"),
            ("ilp-full(init=hc)", "ilp-full(init=hc(init=bspg), time_limit=60.0)"),
            ("cilk", "cilk(seed=0)"),
        ]
        for short, spelled in pairs:
            assert canonical_scheduler_spec(spelled) == canonical_scheduler_spec(short) == short
        # A non-default value stays, and an unknown init is left for make_scheduler.
        assert canonical_scheduler_spec("hc(init=source)") == "hc(init=source)"
        assert canonical_scheduler_spec("hc(init=nosuch)") == "hc(init=nosuch)"


class TestParameterizedFormsParseBack:
    """Parameterized spec strings reproduce an equivalent configuration."""

    def test_framework_parameterized(self):
        scheduler = make_scheduler(
            "framework(preset=fast, use_ilp_full=false, hc_max_moves=25, hc_time_limit=1.5)"
        )
        config = scheduler.config
        assert config.use_ilp_full is False
        assert config.hc_max_moves == 25
        assert config.hc_time_limit == 1.5
        # fast preset knobs survive under the overrides
        assert config.use_ilp_init is False

    def test_framework_preset(self):
        heur = make_scheduler("framework(preset=heuristics)").config
        assert not (heur.use_ilp_full or heur.use_ilp_partial or heur.use_ilp_cs)
        assert make_scheduler("framework").config == PipelineConfig.fast()
        assert make_scheduler("framework(preset=default)").config == PipelineConfig()
        for spec, parameter in [
            ("framework(fast=true)", "fast"),
            ("framework(solver_backend=highs)", "solver_backend"),
            ("ilp-full(backend=highs)", "backend"),
        ]:
            with pytest.raises(ValueError, match=rf"unknown parameter\(s\) {parameter} "):
                make_scheduler(spec)

    def test_multilevel_parameterized(self):
        scheduler = make_scheduler(
            "multilevel(coarsening_ratios=[0.4, 0.2], min_coarse_nodes=12, hc_max_moves=30)"
        )
        config = scheduler.config
        assert config.coarsening_ratios == (0.4, 0.2)
        assert config.min_coarse_nodes == 12
        # pipeline knobs fall through to the base pipeline
        assert config.base_pipeline.hc_max_moves == 30

    def test_local_search_parameterized(self):
        hc = make_scheduler("hc(variant=best, max_moves=7, init=source)")
        assert (hc.variant, hc.max_moves, hc.init) == ("best", 7, "source")
        sa = make_scheduler("sa(steps=11, cooling=0.9, seed=5)")
        assert (sa.steps, sa.cooling, sa.seed) == (11, 0.9, 5)
        hccs = make_scheduler("hccs(max_moves=3)")
        assert hccs.max_moves == 3

    def test_equivalent_spec_strings_build_equal_configs(self):
        a = make_scheduler("framework(hc_max_moves=10, use_ilp_full=false)").config
        b = make_scheduler("framework(use_ilp_full=false, hc_max_moves=10)").config
        assert a == b

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_scheduler("cilk(voltage=9)")

    def test_unknown_pipeline_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_scheduler("framework(warp_speed=true)")
        with pytest.raises(ValueError, match="unknown pipeline option"):
            PipelineConfig().with_overrides(warp_speed=True)


class TestBatchByteIdentity:
    """jobs=2 batches are byte-identical to serial solve loops."""

    def _requests(self, spec: ProblemSpec):
        return [SolveRequest(spec=spec, scheduler=s) for s in DETERMINISTIC_SPECS]

    def test_solve_many_matches_serial_solve_loop(self, spmv_spec):
        requests = self._requests(spmv_spec)
        serial = [api.solve(r).to_json() for r in requests]
        parallel = [r.to_json() for r in api.solve_many(requests, jobs=2)]
        assert serial == parallel

    def test_cli_batch_matches_serial_solve_loop(self, spmv_spec, tmp_path):
        requests = self._requests(spmv_spec)
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text("".join(r.to_json() + "\n" for r in requests))
        out_serial = tmp_path / "serial.jsonl"
        out_parallel = tmp_path / "parallel.jsonl"
        assert main(["batch", str(requests_file), "--out", str(out_serial)]) == 0
        assert main(
            ["batch", str(requests_file), "--jobs", "2", "--out", str(out_parallel)]
        ) == 0
        assert out_serial.read_bytes() == out_parallel.read_bytes()
        expected = "".join(api.solve(r).to_json() + "\n" for r in requests)
        assert out_serial.read_text() == expected

    def test_cli_batch_resume_is_byte_identical(self, spmv_spec, tmp_path):
        requests = self._requests(spmv_spec)[:4]
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text("".join(r.to_json() + "\n" for r in requests))
        checkpoint = tmp_path / "ck.jsonl"
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert main(
            ["batch", str(requests_file), "--checkpoint", str(checkpoint), "--out", str(first)]
        ) == 0
        assert main(
            [
                "batch", str(requests_file), "--jobs", "2",
                "--checkpoint", str(checkpoint), "--resume", "--out", str(second),
            ]
        ) == 0
        assert first.read_bytes() == second.read_bytes()
