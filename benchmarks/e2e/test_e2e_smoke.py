"""Smoke test of the end-to-end benchmark (``run.py --smoke --layers``).

Runs the whole suite twice at about 1/20 size with one seed, then checks
that every metric and layer named in BENCHMARK.json has a finite value, that
layer self times fit in the traced pass, that the seed fixes quality and
counts, that another seed makes other inputs, and that serve rounds repeat
their slots.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    out = []
    for k in range(2):
        path = tmp_path_factory.mktemp("e2e") / f"smoke{k}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--layers", "--seed", "7", "--out", str(path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        out.append(json.loads(path.read_text()))
    return out


def test_every_metric_and_layer_has_a_finite_value(payloads):
    payload = payloads[0]
    assert sorted(payload["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for entry in payload["workloads"].values():
        (run,) = entry["runs"]
        assert run["correct"] and run["failed"] == 0
        for metric in SPEC["end_to_end"]:
            value = run["metrics"][metric["name"]]["value"]
            assert math.isfinite(value) and value > 0, metric["name"]
        for metric in SPEC["per_layer"]:
            assert math.isfinite(entry["layers"]["metrics"][metric["name"]]["value"]), metric["name"]
        assert math.isfinite(entry["trace_overhead"])


def test_layer_self_times_fit_in_the_traced_pass(payloads):
    for name, entry in payloads[0]["workloads"].items():
        metrics = {k: m["value"] for k, m in entry["layers"]["metrics"].items()}
        self_times = sum(metrics[metric] for metric in layers.SELF_TIME_METRICS)
        assert self_times <= metrics["trace.pass_s"], name
        assert metrics["trace.coverage"] >= 0.9, name


def test_same_seed_repeats_quality_and_counts(payloads):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (p["workloads"] for p in payloads)
    for name in first:
        ratio = [w[name]["runs"][0]["metrics"]["cost_ratio.geomean"]["value"] for w in (first, second)]
        assert ratio[0] == ratio[1], name
        got = [{c: w[name]["layers"]["metrics"][c]["value"] for c in counts} for w in (first, second)]
        assert got[0] == got[1], name


def test_another_seed_gives_other_inputs():
    for name in workloads.COMPUTE:
        a, b = ([r.to_json() for r in workloads.compute_requests(name, seed)] for seed in (7, 8))
        # Fixed instances in seeded order.
        assert a != b and sorted(a) == sorted(b), name
        assert a == [r.to_json() for r in workloads.compute_requests(name, 7)]
    a, b = (workloads.serve_traffic(seed) for seed in (7, 8))
    assert not {r.to_json() for r in a.warm} & {r.to_json() for r in b.warm}
    assert a.slots != b.slots
    assert a == workloads.serve_traffic(7)


def test_serve_rounds_repeat_their_slots():
    traffic = workloads.serve_traffic(7)
    one, two = traffic.round(1), traffic.round(2)
    for slot, a, b in zip(traffic.slots, one, two):
        assert (a == b) == isinstance(slot, int)
