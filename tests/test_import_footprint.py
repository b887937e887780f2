"""Import on demand: what a fresh interpreter loads, and that loading it lazily is safe.

Every case runs in a fresh interpreter, so modules imported by earlier tests
cannot hide an eager import or a broken facade table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Module prefixes a request that runs none of them must not load.
HEAVY = (
    "repro.localsearch",
    "repro.ilp",
    "repro.multilevel",
    "repro.pipeline.framework",
    "repro.portfolio.selector",
    "repro.experiments.tables",
    "repro.serve",
    "repro.distrib",
    "repro.checks",
    "scipy",
)

#: Package facades whose names resolve on first access.
FACADES = (
    "repro",
    "repro.baselines",
    "repro.checks",
    "repro.distrib",
    "repro.experiments",
    "repro.graphs",
    "repro.heuristics",
    "repro.ilp",
    "repro.localsearch",
    "repro.model",
    "repro.multilevel",
    "repro.obs",
    "repro.pipeline",
    "repro.portfolio",
    "repro.serve",
)

#: One thread each in the concurrent first-use test.
SCHEDULERS = (
    "cilk",
    "bspg",
    "source",
    "hdagg",
    "etf",
    "bl-est",
    "hc",
    "hccs",
    "framework(preset=heuristics)",
    "multilevel(preset=heuristics)",
    "portfolio",
    "adaptive",
    "sa",
    "greedy-mem",
    "level-rr",
    "trivial",
)


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_after(statements: str) -> list:
    """Names of the loaded ``repro``/``scipy`` modules after ``statements``."""
    return run_fresh(
        statements
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('repro', 'scipy'))))\n"
    )


def heavy_modules(modules: list) -> list:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in HEAVY)]


class TestImportFootprint:
    def test_api_and_registry_load_no_scheduler_modules(self):
        modules = loaded_after("import repro.api, repro.registry")
        assert heavy_modules(modules) == []

    def test_cli_loads_no_scheduler_modules(self):
        modules = loaded_after("import repro.cli")
        assert heavy_modules(modules) == []

    def test_building_one_scheduler_loads_only_its_modules(self):
        modules = loaded_after(
            "from repro.registry import make_scheduler\nmake_scheduler('bl-est')"
        )
        assert "repro.baselines.list_schedulers" in modules
        assert heavy_modules(modules) == []

    def test_bare_package_import_loads_no_subpackage(self):
        modules = loaded_after("import repro")
        assert modules == ["repro", "repro._lazy"]


class TestFacadeSurface:
    @pytest.mark.parametrize("package", FACADES)
    def test_all_names_resolve_star_import_and_dir(self, package):
        report = run_fresh(
            f"""
            import importlib, json
            pkg = importlib.import_module({package!r})
            names = list(pkg.__all__)
            unresolved = [n for n in names if not hasattr(pkg, n)]
            star = {{}}
            exec("from {package} import *", star)
            try:
                pkg.no_such_name
                unknown = "no error"
            except AttributeError:
                unknown = "AttributeError"
            except Exception as exc:
                unknown = type(exc).__name__
            print(json.dumps({{
                "names": names,
                "unresolved": unresolved,
                "not_star": [n for n in names if n not in star],
                "not_dir": [n for n in names if n not in dir(pkg)],
                "unknown": unknown,
            }}))
            """
        )
        assert report["names"]
        assert len(set(report["names"])) == len(report["names"])
        assert report["unresolved"] == []
        assert report["not_star"] == []
        assert report["not_dir"] == []
        assert report["unknown"] == "AttributeError"

    def test_documented_imports(self):
        report = run_fresh(
            """
            import json
            import repro
            from repro import solve, BspMachine, run_pipeline, multilevel_schedule
            from repro.graphs import spmv_dag
            from repro.experiments import sweep, tables
            from repro.pipeline.framework import run_pipeline as direct
            print(json.dumps({
                "same": run_pipeline is direct,
                "sweep": callable(sweep) and not hasattr(sweep, "__path__"),
                "tables": tables.__name__,
                "solve": solve.__module__,
                "spmv": spmv_dag.__module__,
                "submodule": repro.graphs.fine.spmv_dag is spmv_dag,
            }))
            """
        )
        assert report == {
            "same": True,
            "sweep": True,
            "tables": "repro.experiments.tables",
            "solve": "repro.api",
            "spmv": "repro.graphs.fine",
            "submodule": True,
        }

    def test_sweep_stays_the_function_after_its_submodule_is_imported(self):
        report = run_fresh(
            """
            import json
            import repro.experiments.sweep
            from repro.experiments import sweep
            print(json.dumps(callable(sweep)))
            """
        )
        assert report is True


class TestConcurrentFirstUse:
    def test_threads_building_every_scheduler_at_once(self):
        """First imports race in worker threads, as in the serve daemon."""
        report = run_fresh(
            f"""
            import json, sys, threading
            from repro.registry import make_scheduler
            from repro.spec import DagSpec, MachineSpec

            SPECS = {SCHEDULERS!r}
            dag = DagSpec.generator("spmv", n=3, q=0.2, seed=3).build()
            machine = MachineSpec(P=2, g=2, l=3).build()
            barrier = threading.Barrier(len(SPECS))
            costs, errors = {{}}, {{}}

            def run(spec):
                barrier.wait(timeout=60)
                try:
                    costs[spec] = float(make_scheduler(spec).schedule(dag, machine).cost())
                except BaseException as exc:
                    errors[spec] = repr(exc)

            # Switch threads often, so that first imports interleave.
            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=run, args=(spec,)) for spec in SPECS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            serial = {{spec: float(make_scheduler(spec).schedule(dag, machine).cost()) for spec in SPECS}}
            print(json.dumps({{"costs": costs, "errors": errors, "serial": serial}}))
            """
        )
        assert report["errors"] == {}
        assert report["costs"] == report["serial"]
        assert len(report["costs"]) == len(SCHEDULERS)
