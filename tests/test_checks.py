"""Tests for the ``repro check`` static-analysis suite.

Every rule gets at least one true-positive fixture and one clean negative,
written to a temporary tree with the path shape the rule scopes by (the
lock-discipline rule only looks inside ``serve/`` and ``obs/``, the
protocol rule only inside ``serve/``).  On top of
the per-rule fixtures: pragma suppression, the baseline round-trip, the CLI
surface, and a self-check asserting the shipped tree is clean under its own
gate.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.checks.core import (
    BaselineError,
    Finding,
    load_baseline,
    write_baseline,
)
from repro.checks.rules import ALL_RULES, rule_registry
from repro.checks.rules.determinism import DeterminismRule
from repro.checks.rules.frozen_spec import FrozenSpecMutationRule
from repro.checks.rules.lock_discipline import LockDisciplineRule
from repro.checks.rules.protocol_contract import ProtocolContractRule
from repro.checks.rules.registry_contract import RegistryContractRule
from repro.checks.runner import all_rules, collect_files, main, run_checks

REPO_ROOT = Path(__file__).resolve().parents[1]


def check(tmp_path, rule, files):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and run ``rule``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_checks([tmp_path], rules=[rule])


def rules_fired(report):
    return [finding.rule for finding in report.findings]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_flags_unseeded_rng_and_set_iteration(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "engine.py": """
                import random
                import numpy as np

                def draw():
                    rng = np.random.default_rng()
                    x = np.random.rand(3)
                    y = random.random()
                    return rng, x, y

                def walk(items):
                    return [v for v in set(items)]
            """,
        })
        messages = " ".join(f.message for f in report.findings)
        assert rules_fired(report) == ["determinism"] * 4
        assert "unseeded" in messages
        assert "global numpy RNG" in messages
        assert "global stdlib RNG" in messages
        assert "set(...)" in messages

    def test_flags_wall_clock_and_listdir(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "engine.py": """
                import os
                import time

                def budget_left(deadline):
                    return deadline - time.time()

                def scan(root):
                    for name in os.listdir(root):
                        print(name)
            """,
        })
        assert len(report.findings) == 2
        assert any("time.time" in f.message for f in report.findings)
        assert any("os.listdir" in f.message for f in report.findings)

    def test_seeded_and_sorted_are_clean(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "engine.py": """
                import random
                import numpy as np

                def draw(seed):
                    rng = np.random.default_rng(seed)
                    local = random.Random(seed)
                    return rng.random(), local.random()

                def walk(items):
                    return [v for v in sorted(set(items))]
            """,
        })
        assert report.findings == []
        assert report.ok

    def test_harness_modules_may_time_and_iterate_sets(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "benchmarks/bench_thing.py": """
                import time

                def measure(fn):
                    t0 = time.time()
                    fn()
                    return time.time() - t0

                def spread(items):
                    return [v for v in set(items)]
            """,
        })
        assert report.findings == []


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
POOL_FIXTURE = """
    import threading

    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self.completed = 0

        def start(self):
            t = threading.Thread(target=self._worker)
            t.start()

        def _worker(self):
            {worker_body}

        def note_done(self):
            with self._lock:
                self.completed += 1
"""


OBS_FIXTURE = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._value = 0

        def inc(self):
            {inc_body}

        def reset(self):
            with self._lock:
                self._value = 0
"""


class TestLockDisciplineRule:
    def test_unguarded_shared_counter_fires(self, tmp_path):
        report = check(tmp_path, LockDisciplineRule(), {
            "serve/pool.py": POOL_FIXTURE.format(worker_body="self.completed += 1"),
        })
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "lock-discipline"
        assert "Pool.completed" in finding.message
        assert "_worker" in finding.message

    def test_guarded_mutations_are_clean(self, tmp_path):
        guarded = "with self._lock:\n                self.completed += 1"
        report = check(tmp_path, LockDisciplineRule(), {
            "serve/pool.py": POOL_FIXTURE.format(worker_body=guarded),
        })
        assert report.findings == []

    def test_only_serve_modules_are_in_scope(self, tmp_path):
        report = check(tmp_path, LockDisciplineRule(), {
            "other/pool.py": POOL_FIXTURE.format(worker_body="self.completed += 1"),
        })
        assert report.findings == []

    def test_single_method_mutation_is_clean(self, tmp_path):
        report = check(tmp_path, LockDisciplineRule(), {
            "serve/pool.py": POOL_FIXTURE.format(worker_body="pass"),
        })
        # note_done is now the only mutator of `completed`: below threshold.
        assert report.findings == []

    def test_obs_lock_constructing_class_fires_unguarded(self, tmp_path):
        report = check(tmp_path, LockDisciplineRule(), {
            "obs/metrics.py": OBS_FIXTURE.format(inc_body="self._value += 1"),
        })
        assert len(report.findings) == 1
        assert "Counter._value" in report.findings[0].message

    def test_obs_guarded_mutations_are_clean(self, tmp_path):
        guarded = "with self._lock:\n                self._value += 1"
        report = check(tmp_path, LockDisciplineRule(), {
            "obs/metrics.py": OBS_FIXTURE.format(inc_body=guarded),
        })
        assert report.findings == []

    def test_obs_class_without_a_lock_is_out_of_scope(self, tmp_path):
        # No Lock() construction => the class never declared itself shared.
        report = check(tmp_path, LockDisciplineRule(), {
            "obs/metrics.py": """
                class Plain:
                    def __init__(self):
                        self.value = 0

                    def inc(self):
                        self.value += 1

                    def reset(self):
                        self.value = 0
            """,
        })
        assert report.findings == []

    def test_reverting_a_real_obs_guard_fires(self, tmp_path):
        """Stripping one guard from the real obs/metrics.py must fire."""
        source = (REPO_ROOT / "src" / "repro" / "obs" / "metrics.py").read_text()
        needle = "with self._lock:\n            self._value -= amount"
        assert needle in source, "expected guard missing from obs/metrics.py"
        broken = source.replace(needle, "self._value -= amount", 1)
        report = check(tmp_path, LockDisciplineRule(), {"obs/metrics.py": broken})
        assert any(
            f.rule == "lock-discipline" and "_value" in f.message
            for f in report.findings
        )
        clean = check(tmp_path / "clean", LockDisciplineRule(), {"obs/metrics.py": source})
        assert clean.findings == []

    def test_reverting_a_real_pool_guard_fires(self, tmp_path):
        """Stripping one `with self._lock:` guard from the real serve/pool.py
        must produce a lock-discipline finding (the ISSUE acceptance check)."""
        source = (REPO_ROOT / "src" / "repro" / "serve" / "pool.py").read_text()
        needle = "with self._lock:\n            self._accepting = False"
        assert needle in source, "expected guard missing from serve/pool.py"
        broken = source.replace(needle, "self._accepting = False", 1)
        assert broken != source
        report = check(tmp_path, LockDisciplineRule(), {"serve/pool.py": broken})
        assert any(
            f.rule == "lock-discipline" and "_accepting" in f.message
            for f in report.findings
        )
        # And the shipped source itself is clean.
        clean = check(tmp_path / "clean", LockDisciplineRule(), {"serve/pool.py": source})
        assert clean.findings == []


# ----------------------------------------------------------------------
# registry-contract
# ----------------------------------------------------------------------
class TestRegistryContractRule:
    def test_parameter_mismatch_fires_both_directions(self, tmp_path):
        report = check(tmp_path, RegistryContractRule(), {
            "factories.py": """
                @register_scheduler("foo", parameters=("alpha", "ghost"))
                def make_foo(alpha=1, beta=2):
                    return object()
            """,
        })
        messages = [f.message for f in report.findings]
        assert len(messages) == 2
        assert any("'beta' is missing" in m for m in messages)
        assert any("'ghost' is not an argument" in m for m in messages)

    def test_var_kwargs_requires_explicit_parameters(self, tmp_path):
        report = check(tmp_path, RegistryContractRule(), {
            "factories.py": """
                @register_scheduler("bar")
                def make_bar(**overrides):
                    return object()
            """,
        })
        assert len(report.findings) == 1
        assert "declare parameters= explicitly" in report.findings[0].message

    def test_consistent_registration_is_clean(self, tmp_path):
        report = check(tmp_path, RegistryContractRule(), {
            "factories.py": """
                PARAMS = ("alpha", "beta")

                @register_scheduler("foo", parameters=PARAMS)
                def make_foo(alpha=1, beta=2):
                    return object()

                @register_scheduler("ilp", parameters=("time_limit",))
                def make_ilp(time_limit=5.0):
                    return object()
            """,
        })
        assert report.findings == []


# ----------------------------------------------------------------------
# frozen-spec-mutation
# ----------------------------------------------------------------------
class TestFrozenSpecMutationRule:
    def test_attribute_store_and_setattr_fire(self, tmp_path):
        report = check(tmp_path, FrozenSpecMutationRule(), {
            "tweak.py": """
                def tweak(request: "SolveRequest"):
                    spec = MachineSpec(P=2, g=1, l=1)
                    spec.P = 4
                    object.__setattr__(request, "scheduler", "hc")
                    return spec
            """,
        })
        messages = [f.message for f in report.findings]
        assert len(messages) == 2
        assert any("'spec'" in m and "immutable" in m for m in messages)
        assert any("__setattr__" in m and "'request'" in m for m in messages)

    def test_building_new_instances_is_clean(self, tmp_path):
        report = check(tmp_path, FrozenSpecMutationRule(), {
            "tweak.py": """
                import dataclasses

                def widen(spec: "MachineSpec"):
                    wider = dataclasses.replace(spec, P=spec.P * 2)
                    other = MachineSpec(P=spec.P, g=spec.g, l=spec.l)
                    return wider, other
            """,
        })
        assert report.findings == []

    def test_defining_module_is_exempt(self, tmp_path):
        report = check(tmp_path, FrozenSpecMutationRule(), {
            "repro/spec.py": """
                def __post_init__(self):
                    spec = MachineSpec(P=2, g=1, l=1)
                    object.__setattr__(spec, "P", 4)
            """,
        })
        assert report.findings == []


# ----------------------------------------------------------------------
# protocol-contract
# ----------------------------------------------------------------------
PROTOCOL_OK = """
    E_BAD_REQUEST = "bad-request"
    E_QUEUE_FULL = "queue-full"
    ERROR_CODES = (E_BAD_REQUEST, E_QUEUE_FULL)
"""

HANDLERS_OK = """
    from .protocol import E_BAD_REQUEST, E_QUEUE_FULL, error_response

    def handle(rid, queue):
        if queue.full():
            return error_response(rid, E_QUEUE_FULL, "queue full")
        return error_response(rid, E_BAD_REQUEST, "bad request")
"""


class TestProtocolContractRule:
    def test_consistent_protocol_is_clean(self, tmp_path):
        report = check(tmp_path, ProtocolContractRule(), {
            "serve/protocol.py": PROTOCOL_OK,
            "serve/handlers.py": HANDLERS_OK,
        })
        assert report.findings == []

    def test_unregistered_and_unused_codes_fire(self, tmp_path):
        report = check(tmp_path, ProtocolContractRule(), {
            "serve/protocol.py": """
                E_BAD_REQUEST = "bad-request"
                E_QUEUE_FULL = "queue-full"
                E_ORPHAN = "orphan"
                ERROR_CODES = (E_BAD_REQUEST, E_QUEUE_FULL)
            """,
            "serve/handlers.py": HANDLERS_OK,
        })
        messages = [f.message for f in report.findings]
        assert any("E_ORPHAN is declared but missing from ERROR_CODES" in m
                   for m in messages)
        assert any("E_ORPHAN is never produced or handled" in m for m in messages)

    def test_bad_call_sites_fire(self, tmp_path):
        report = check(tmp_path, ProtocolContractRule(), {
            "serve/protocol.py": PROTOCOL_OK,
            "serve/handlers.py": HANDLERS_OK,
            "serve/worker.py": """
                from . import protocol

                def refuse(ticket, stats):
                    _refuse(ticket, "not-a-code", "nope")
                    stats.note_error(protocol.E_MYSTERY)
            """,
        })
        messages = [f.message for f in report.findings]
        assert any("literal code 'not-a-code'" in m for m in messages)
        assert any("undeclared error code constant E_MYSTERY" in m for m in messages)

    def test_duplicate_wire_values_fire(self, tmp_path):
        report = check(tmp_path, ProtocolContractRule(), {
            "serve/protocol.py": """
                E_BAD_REQUEST = "bad-request"
                E_ALSO_BAD = "bad-request"
                ERROR_CODES = (E_BAD_REQUEST, E_ALSO_BAD)
            """,
            "serve/handlers.py": """
                from .protocol import E_ALSO_BAD, E_BAD_REQUEST, error_response

                def handle(rid):
                    error_response(rid, E_BAD_REQUEST, "x")
                    return error_response(rid, E_ALSO_BAD, "y")
            """,
        })
        assert any("share the wire value 'bad-request'" in f.message
                   for f in report.findings)

    def test_without_protocol_module_rule_is_silent(self, tmp_path):
        report = check(tmp_path, ProtocolContractRule(), {
            "serve/handlers.py": HANDLERS_OK,
        })
        assert report.findings == []


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_disable_pragma_suppresses_named_rule(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "engine.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng()  # repro-check: disable=determinism
            """,
        })
        assert report.findings == []

    def test_disable_all_suppresses_everything(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "engine.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng()  # repro-check: disable=all
            """,
        })
        assert report.findings == []

    def test_pragma_on_other_line_does_not_suppress(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "engine.py": """
                import numpy as np

                # repro-check: disable=determinism
                def draw():
                    return np.random.default_rng()
            """,
        })
        assert len(report.findings) == 1

    def test_unrelated_rule_name_does_not_suppress(self, tmp_path):
        report = check(tmp_path, DeterminismRule(), {
            "engine.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng()  # repro-check: disable=lock-discipline
            """,
        })
        assert len(report.findings) == 1


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = [
            Finding("src/a.py", 3, 1, "determinism", "msg one"),
            Finding("src/b.py", 7, 5, "lock-discipline", "msg two"),
        ]
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        assert load_baseline(path) == {f.key() for f in findings}

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()

    def test_malformed_and_wrong_version_raise(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(bad_json)
        wrong_version = tmp_path / "v99.json"
        wrong_version.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(BaselineError):
            load_baseline(wrong_version)

    def test_baselined_findings_do_not_fail_the_run(self, tmp_path):
        files = {
            "engine.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng()
            """,
        }
        report = check(tmp_path, DeterminismRule(), files)
        assert len(report.findings) == 1 and not report.ok

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)
        again = run_checks(
            [tmp_path],
            rules=[DeterminismRule()],
            baseline=load_baseline(baseline_path),
        )
        assert again.ok
        assert again.findings == []
        assert len(again.baselined) == 1
        assert again.stale_baseline == 0

    def test_stale_entries_are_counted(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        stale = {("gone.py", "determinism", "old message")}
        report = run_checks([tmp_path], rules=[DeterminismRule()], baseline=stale)
        assert report.ok
        assert report.stale_baseline == 1


# ----------------------------------------------------------------------
# runner / CLI surface
# ----------------------------------------------------------------------
class TestRunnerAndCli:
    def test_collect_files_is_sorted_and_skips_caches(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-311.pyc.py").write_text("x = 1\n")
        names = [Path(rel).name for _, rel in collect_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_every_rule_is_registered(self):
        registry = rule_registry()
        assert len(ALL_RULES) == 5
        expected = {
            "determinism",
            "frozen-spec-mutation",
            "lock-discipline",
            "protocol-contract",
            "registry-contract",
        }
        assert set(registry) == expected
        assert {rule.name for rule in all_rules()} == expected
        for rule in all_rules():
            assert rule.description

    def test_parse_error_fails_the_run(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        report = run_checks([tmp_path], rules=all_rules())
        assert not report.ok
        assert len(report.errors) == 1

    def test_json_report_shape(self, tmp_path):
        files = {
            "engine.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng()
            """,
        }
        report = check(tmp_path, DeterminismRule(), files)
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        assert payload["checked_files"] == 1
        assert len(payload["findings"]) == 1
        entry = payload["findings"][0]
        assert set(entry) == {"path", "line", "col", "rule", "message"}

    def test_main_exit_codes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        dirty = tmp_path / "proj"
        dirty.mkdir()
        (dirty / "engine.py").write_text(
            "import numpy as np\n\n\ndef draw():\n    return np.random.default_rng()\n"
        )
        assert main(["proj", "--no-baseline"]) == 1
        capsys.readouterr()
        (dirty / "engine.py").write_text("x = 1\n")
        assert main(["proj", "--no-baseline"]) == 0
        capsys.readouterr()
        assert main(["missing-dir", "--no-baseline"]) == 2

    def test_update_baseline_grandfathers_findings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "engine.py").write_text(
            "import numpy as np\n\n\ndef draw():\n    return np.random.default_rng()\n"
        )
        baseline = tmp_path / "baseline.json"
        assert main(["proj", "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        assert len(load_baseline(baseline)) == 1
        # The grandfathered finding no longer fails the gate.
        assert main(["proj", "--baseline", str(baseline)]) == 0

    def test_rules_selection_and_unknown_rule(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "engine.py").write_text(
            "import numpy as np\n\n\ndef draw():\n    return np.random.default_rng()\n"
        )
        # The offending module is clean under a rule that does not apply.
        assert main(["proj", "--no-baseline", "--rules", "lock-discipline"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["proj", "--rules", "no-such-rule"])

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "determinism" in out
        assert "protocol-contract" in out

    def test_repro_cli_check_subcommand(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.chdir(tmp_path)
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "clean.py").write_text("x = 1\n")
        assert cli_main(["check", "proj", "--no-baseline", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert cli_main(["check", "--list-rules"]) == 0
        assert "determinism" in capsys.readouterr().out


# ----------------------------------------------------------------------
# self-check: the shipped tree passes its own gate
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_repo_tree_is_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src", "tests", "benchmarks"]) == 0
