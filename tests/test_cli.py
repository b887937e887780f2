"""Tests for the command-line interface (python -m repro)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main, subcommands
from repro.graphs.fine import spmv_dag
from repro.graphs.hyperdag import read_hyperdag, write_hyperdag


@pytest.fixture
def hyperdag_file(tmp_path):
    path = tmp_path / "example.hdag"
    write_hyperdag(spmv_dag(6, q=0.3, seed=4), path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule", "--kind", "spmv"])
        assert args.processors == 4 and args.scheduler == "framework"

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--kind", "spmv"])


class TestHelp:
    @pytest.mark.parametrize("name", subcommands())
    def test_every_subcommand_has_help(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        assert f"repro {name}" in capsys.readouterr().out

    def test_check_help_is_the_runners_own(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        out = capsys.readouterr().out
        assert "Project-specific static analysis for the repro codebase." in out
        assert "--rules RULES" in out  # the runner's parser, not a copy of it


class TestBadInput:
    """Bad user input ends in a one-line message (exit status 1), never a traceback."""

    SPMV = ["--kind", "spmv", "--size", "5", "-P", "2"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["schedule", *SPMV, "--scheduler", "hc(max_moves=5"], "invalid scheduler spec"),
            (["schedule", *SPMV, "--scheduler", "hc(foo=1)"], "unknown parameter"),
            (["schedule", *SPMV, "--schedulers", "cilk,hc(foo=1)"], "unknown parameter"),
            (["schedule", "--kind", "spmv", "-P", "0"], "P must be positive"),
            (["portfolio-explain", "--kind", "spmv", "-P", "0"], "P must be positive"),
            (["schedule", "/missing.hdag"], "No such file"),
            (["info", "/missing.hdag"], "No such file"),
        ],
    )
    def test_exits_with_one_line_message(self, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert isinstance(excinfo.value.code, str)
        assert message in excinfo.value.code
        assert "\n" not in excinfo.value.code

    def test_console_exit_status_and_no_traceback(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info", "/missing.hdag"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().count("\n") == 0


class TestGenerateAndInfo:
    def test_generate_writes_readable_hyperdag(self, tmp_path, capsys):
        out = tmp_path / "generated.hdag"
        code = main(["generate", "--kind", "spmv", "--size", "6", "--seed", "1", "--out", str(out)])
        assert code == 0
        dag = read_hyperdag(out)
        assert dag.n > 0
        assert "nodes" in capsys.readouterr().out

    def test_generate_coarse_kind(self, tmp_path):
        out = tmp_path / "cg.hdag"
        assert main(["generate", "--kind", "pagerank", "--iterations", "4", "--out", str(out)]) == 0
        assert read_hyperdag(out).n > 10

    def test_generate_unknown_kind(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--kind", "fft", "--out", str(tmp_path / "x.hdag")])

    def test_info_prints_statistics(self, hyperdag_file, capsys):
        assert main(["info", str(hyperdag_file)]) == 0
        out = capsys.readouterr().out
        assert "depth" in out and "total_work" in out


class TestScheduleCommand:
    def test_schedule_from_file_with_comparison(self, hyperdag_file, capsys, tmp_path):
        out_csv = tmp_path / "assignment.csv"
        code = main(
            [
                "schedule",
                str(hyperdag_file),
                "-P", "2", "-g", "2", "-l", "3",
                "--scheduler", "hdagg",
                "--compare", "cilk", "trivial",
                "--gantt",
                "--out", str(out_csv),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hdagg schedule" in output
        assert "comparison" in output and "cilk" in output
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "node,processor,superstep"
        assert len(lines) == read_hyperdag(hyperdag_file).n + 1

    def test_schedule_generated_numa_instance(self, capsys):
        code = main(
            [
                "schedule",
                "--kind", "cg", "--size", "5", "--iterations", "1",
                "-P", "4", "--delta", "2",
                "--scheduler", "source",
            ]
        )
        assert code == 0
        assert "total cost" in capsys.readouterr().out

    def test_schedule_requires_input(self):
        with pytest.raises(SystemExit):
            main(["schedule", "-P", "2"])

    def test_unknown_scheduler_rejected(self, hyperdag_file):
        with pytest.raises(SystemExit, match="unknown scheduler 'magic'"):
            main(["schedule", str(hyperdag_file), "--scheduler", "magic"])


class TestCacheDirScope:
    """``--cache-dir`` is the process default cache only while its command
    runs: in-process callers of ``main`` must not inherit it afterwards."""

    @pytest.mark.parametrize("user_env", [None, "user-cache"])
    @pytest.mark.parametrize("library_default", [None, "library-cache"])
    def test_main_restores_the_default_cache_dir(
        self, user_env, library_default, tmp_path, monkeypatch, capsys
    ):
        from repro.portfolio.cache import default_cache_dir, set_default_cache_dir

        set_default_cache_dir(None)
        if user_env is None:
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / user_env))
        if library_default is not None:
            set_default_cache_dir(tmp_path / library_default)
        try:
            before = (default_cache_dir(), os.environ.get("REPRO_CACHE_DIR"))
            code = main(
                [
                    "schedule", "--kind", "spmv", "--size", "6", "-P", "2",
                    "--scheduler", "etf", "--cache-dir", str(tmp_path / "cli-cache"),
                ]
            )
            assert code == 0
            assert (default_cache_dir(), os.environ.get("REPRO_CACHE_DIR")) == before
        finally:
            set_default_cache_dir(None)
        assert os.environ.get("REPRO_CACHE_DIR") == (
            None if user_env is None else str(tmp_path / user_env)
        )


class TestReproCommand:
    def test_list_targets(self, capsys):
        assert main(["repro", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig7" in out

    def test_no_target_prints_listing(self, capsys):
        assert main(["repro"]) == 0
        assert "pick a target" in capsys.readouterr().out

    def test_unknown_target_exits_with_message(self):
        with pytest.raises(SystemExit, match="unknown repro target"):
            main(["repro", "table99"])

    def test_runs_a_target_with_jobs(self, capsys):
        # fig7 is heuristics-only (no ILP), so this stays fast at smoke scale.
        assert main(["repro", "fig7", "--jobs", "2", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "|" in out


class TestSpecAndBatch:
    @pytest.fixture
    def spmv_spec(self):
        from repro.spec import DagSpec, MachineSpec, ProblemSpec

        return ProblemSpec(
            dag=DagSpec.generator("spmv", n=6, q=0.3, seed=4),
            machine=MachineSpec(P=2, g=2, l=3),
        )

    def test_schedule_from_problem_spec_file(self, spmv_spec, tmp_path, capsys):
        spec_file = tmp_path / "problem.json"
        spec_file.write_text(spmv_spec.to_json())
        assert main(["schedule", "--spec", str(spec_file), "--scheduler", "hdagg"]) == 0
        assert "hdagg schedule" in capsys.readouterr().out

    def test_schedule_from_solve_request_file(self, spmv_spec, tmp_path, capsys):
        from repro.spec import SolveRequest

        spec_file = tmp_path / "request.json"
        spec_file.write_text(SolveRequest(spec=spmv_spec, scheduler="trivial").to_json())
        assert main(["schedule", "--spec", str(spec_file)]) == 0
        assert "trivial schedule" in capsys.readouterr().out

    def test_schedule_spec_request_keeps_seed_and_budget(self, spmv_spec, tmp_path, capsys):
        # The request's seed/time_budget canonicalize into the scheduler spec
        # exactly as in the batch facade — they must not be dropped.
        from repro.spec import SolveRequest

        spec_file = tmp_path / "request.json"
        spec_file.write_text(
            SolveRequest(spec=spmv_spec, scheduler="sa(steps=10)", seed=9).to_json()
        )
        assert main(["schedule", "--spec", str(spec_file)]) == 0
        assert "sa(seed=9, steps=10) schedule" in capsys.readouterr().out

    def test_schedule_rejects_malformed_spec_file(self, tmp_path):
        spec_file = tmp_path / "broken.json"
        spec_file.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read spec file"):
            main(["schedule", "--spec", str(spec_file)])

    def test_batch_runs_requests_and_writes_results(self, spmv_spec, tmp_path, capsys):
        from repro.spec import SolveRequest

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "".join(
                SolveRequest(spec=spmv_spec, scheduler=s).to_json() + "\n"
                for s in ("cilk", "hdagg")
            )
        )
        assert main(["batch", str(requests), "--jobs", "2"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert '"scheduler": "cilk"' in lines[0]
        assert '"total_cost"' in lines[1]

    def test_batch_empty_file_rejected(self, tmp_path):
        requests = tmp_path / "empty.jsonl"
        requests.write_text("\n")
        with pytest.raises(SystemExit, match="no solve requests"):
            main(["batch", str(requests)])

    def test_schedulers_flag_accepts_parameterized_specs(self, spmv_spec, tmp_path, capsys):
        spec_file = tmp_path / "problem.json"
        spec_file.write_text(spmv_spec.to_json())
        code = main([
            "schedule", "--spec", str(spec_file),
            "--schedulers", "hc(max_moves=10, init=source),cilk",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hc(max_moves=10, init=source) schedule" in out and "cilk" in out


class TestSchedulersFlag:
    def test_schedulers_overrides_scheduler_and_compare(self, capsys):
        code = main([
            "schedule", "--kind", "spmv", "--size", "5", "-P", "2",
            "--scheduler", "framework", "--compare", "etf",
            "--schedulers", "cilk,hdagg",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cilk schedule" in out and "hdagg" in out
        assert "framework" not in out and "etf" not in out

    def test_schedulers_with_parallel_jobs(self, capsys):
        code = main([
            "schedule", "--kind", "spmv", "--size", "5", "-P", "2",
            "--schedulers", "cilk,hdagg", "--jobs", "2",
        ])
        assert code == 0
        assert "comparison" in capsys.readouterr().out

    def test_empty_schedulers_rejected(self):
        with pytest.raises(SystemExit, match="at least one scheduler"):
            main(["schedule", "--kind", "spmv", "--size", "5", "--schedulers", ",,"])
