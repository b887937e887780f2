"""Tests for the repro.api facade (solve / solve_many / compare)."""

import pytest

from repro import api
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest, SpecError


@pytest.fixture
def spmv_spec() -> ProblemSpec:
    return ProblemSpec(
        dag=DagSpec.generator("spmv", n=6, q=0.3, seed=4),
        machine=MachineSpec(P=2, g=2, l=3),
    )


class TestSolve:
    def test_solve_returns_cost_breakdown(self, spmv_spec):
        result = api.solve(SolveRequest(spec=spmv_spec, scheduler="hdagg"))
        assert result.valid
        assert result.total_cost == pytest.approx(
            result.work_cost + result.comm_cost + result.latency_cost
        )
        assert result.num_supersteps >= 1
        assert result.num_nodes == spmv_spec.build_dag().n
        assert result.wall_seconds >= 0
        assert result.scheduler == "hdagg"
        assert result.deterministic

    def test_solve_parameterized_scheduler(self, spmv_spec):
        base = api.solve(SolveRequest(spec=spmv_spec, scheduler="bspg"))
        improved = api.solve(
            SolveRequest(spec=spmv_spec, scheduler="hc(max_moves=100, init=bspg)")
        )
        assert improved.total_cost <= base.total_cost

    def test_seed_merges_into_scheduler_spec(self, spmv_spec):
        result = api.solve(SolveRequest(spec=spmv_spec, scheduler="cilk", seed=5))
        assert result.scheduler == "cilk(seed=5)"

    def test_time_budget_merges_into_time_limit(self, spmv_spec):
        result = api.solve(
            SolveRequest(spec=spmv_spec, scheduler="hc(max_moves=5)", time_budget=3)
        )
        assert result.scheduler == "hc(max_moves=5, time_limit=3.0)"

    def test_explicit_spec_parameter_wins_over_request_seed(self, spmv_spec):
        result = api.solve(SolveRequest(spec=spmv_spec, scheduler="cilk(seed=1)", seed=9))
        assert result.scheduler == "cilk(seed=1)"

    def test_unknown_scheduler_raises(self, spmv_spec):
        with pytest.raises(ValueError, match="unknown scheduler"):
            api.solve(SolveRequest(spec=spmv_spec, scheduler="magic"))


class TestSolveMany:
    def test_results_in_request_order(self, spmv_spec):
        specs = ["hdagg", "cilk", "trivial"]
        results = api.solve_many(
            [SolveRequest(spec=spmv_spec, scheduler=s) for s in specs]
        )
        assert [r.scheduler for r in results] == specs

    def test_parallel_matches_serial(self, spmv_spec):
        requests = [
            SolveRequest(spec=spmv_spec, scheduler=s)
            for s in ("cilk", "hdagg", "bspg", "source")
        ]
        serial = [api.solve(r).to_dict() for r in requests]
        parallel = [r.to_dict() for r in api.solve_many(requests, jobs=2)]
        assert serial == parallel

    def test_checkpoint_resume_skips_done_work(self, spmv_spec, tmp_path):
        checkpoint = tmp_path / "batch.jsonl"
        requests = [
            SolveRequest(spec=spmv_spec, scheduler=s) for s in ("cilk", "hdagg")
        ]
        first = api.solve_many(requests, checkpoint=checkpoint)
        assert checkpoint.exists()
        resumed = api.solve_many(requests, checkpoint=checkpoint, resume=True)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in resumed]

    def test_explicit_time_limit_clears_deterministic_flag(self, spmv_spec):
        result = api.solve(
            SolveRequest(spec=spmv_spec, scheduler="hc(max_moves=5, time_limit=30)")
        )
        assert result.deterministic is False
        assert api.solve(SolveRequest(spec=spmv_spec, scheduler="hc(max_moves=5)")).deterministic

    def test_compare_runs_all_schedulers_on_one_problem(self, spmv_spec):
        results = api.compare(spmv_spec, ["cilk", "hdagg"], jobs=2)
        assert len(results) == 2
        assert {r.dag_name for r in results} == {"spmv_n6"}

    def test_compare_builds_the_problem_once(self, spmv_spec, monkeypatch):
        calls = []
        build_dag = ProblemSpec.build_dag

        def counting(self):
            calls.append(self)
            return build_dag(self)

        monkeypatch.setattr(ProblemSpec, "build_dag", counting)
        results = api.compare(spmv_spec, ["cilk", "hdagg", "bl-est", "etf", "hc(max_moves=5)"])
        assert len(calls) == 1
        monkeypatch.undo()
        # Each result is what a one-shot solve of that spec gives, byte for byte.
        expected = [
            api.solve(SolveRequest(spec=spmv_spec, scheduler=s, seed=3)).to_json()
            for s in ["cilk", "hc(max_moves=5)"]
        ]
        assert [r.to_json() for r in api.compare(spmv_spec, ["cilk", "hc(max_moves=5)"], seed=3)] == expected
        assert results[0].to_json() == api.solve(SolveRequest(spec=spmv_spec, scheduler="cilk")).to_json()

    def test_compare_runs_a_seedless_problem_on_one_draw(self):
        spec = ProblemSpec(
            dag=DagSpec.generator("spmv", n=8, q=0.3), machine=MachineSpec(P=2, g=2, l=3)
        )
        results = api.compare(spec, ["bl-est"] * 3)
        assert len({r.num_nodes for r in results}) == 1
        assert len({r.to_json() for r in results}) == 1


class TestJsonlHelpers:
    def test_load_requests_round_trip(self, spmv_spec, tmp_path):
        path = tmp_path / "requests.jsonl"
        requests = [
            SolveRequest(spec=spmv_spec, scheduler="cilk"),
            SolveRequest(spec=spmv_spec, scheduler="hc(max_moves=5)", seed=3),
        ]
        path.write_text("".join(r.to_json() + "\n" for r in requests))
        assert api.load_requests(path) == requests

    def test_load_requests_skips_blank_and_comment_lines(self, spmv_spec, tmp_path):
        path = tmp_path / "requests.jsonl"
        request = SolveRequest(spec=spmv_spec, scheduler="cilk")
        path.write_text("# header\n\n" + request.to_json() + "\n")
        assert api.load_requests(path) == [request]

    def test_load_requests_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"scheduler": "cilk"}\n')
        with pytest.raises(SpecError, match=":1:"):
            api.load_requests(path)

    def test_write_results_deterministic_by_default(self, spmv_spec, tmp_path):
        results = api.solve_many(
            [SolveRequest(spec=spmv_spec, scheduler="cilk")] * 2
        )
        out = tmp_path / "results.jsonl"
        api.write_results(results, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert "wall_seconds" not in lines[0]
        api.write_results(results, out, timing=True)
        assert "wall_seconds" in out.read_text()
