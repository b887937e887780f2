"""compare.py on synthetic payloads: verdicts, and the layer that moved."""

import json
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Five runs spread +-0.2% around each median: well inside every bound.
JITTER = (0.998, 0.999, 1.0, 1.001, 1.002)


def write_payload(path: Path, *, e2e=None, layers=None) -> str:
    """A payload of every workload; ``e2e``/``layers`` scale chosen metrics."""
    e2e, layers = e2e or {}, layers or {}
    workloads = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [
            {
                "metrics": {
                    m["name"]: {"value": j * e2e.get((workload, m["name"]), 1.0), "unit": m["unit"]}
                    for m in SPEC["end_to_end"]
                }
            }
            for j in JITTER
        ]
        traced = {
            m["name"]: {"value": 0.1 * layers.get((workload, m["name"]), 1.0), "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
        workloads[workload] = {"runs": runs, "layers": {"metrics": traced}}
    payload = {"schema": "repro-bench/2", "spec": SPEC, "workloads": workloads}
    path.write_text(json.dumps(payload))
    return str(path)


def test_report_names_the_inflated_layer(tmp_path):
    base = write_payload(tmp_path / "base.json")
    change = write_payload(tmp_path / "change.json", layers={("multilevel-numa", "multilevel.coarsen_s"): 3.0})
    text, any_worse = compare.report([base], [change])
    section = text.split("multilevel-numa: layers whose self time moved most")[1]
    assert section.split("\n")[1].split()[0] == "multilevel.coarsen_s"
    assert not any_worse
    assert "worse" not in text and "unresolved" not in text


def test_wall_time_past_its_bound_is_worse(tmp_path, capsys):
    base = write_payload(tmp_path / "base.json")
    change = write_payload(tmp_path / "change.json", e2e={("pipeline-hc", "wall_s"): 1.5})
    assert compare.main([base, "--", change]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith("worse")]
    assert [row.split()[:2] for row in rows] == [["pipeline-hc", "wall_s"]]


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(base, [0.8, 0.81, 0.79], "lower", 0.1) == "better"
    assert compare.verdict(base, [1.02, 1.0, 1.01], "lower", 0.1) == "same"
    assert compare.verdict(base, [1.3, 1.31, 1.29], "lower", 0.1) == "worse"
    assert compare.verdict(base, [1.3, 1.31, 1.29], "higher", 0.1) == "better"
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert compare.verdict(noisy, [1.05, 0.75, 1.35], "lower", 0.1) == "unresolved"
