"""Compare two sets of ``repro-bench/2`` payloads written by ``run.py``.

::

    python3 benchmarks/e2e/compare.py BASE*.json -- CHANGE*.json

The runs of all files on one side are pooled.  For every workload and
end-to-end metric it prints each side's median and quartiles, the
change/base ratio of the medians and a verdict:

* ``worse``: the change's median is worse than the base's by more than the
  metric's bound, and the spread of both sides is within the bound (or
  every change run is worse than every base run);
* ``unresolved``: a side's interquartile range, as a share of its median,
  exceeds the bound, so the runs cannot tell;
* ``better``: every change run beats every base run, or the medians differ
  by more than the base's own interquartile range;
* ``same``: otherwise.

It then lists, per workload, the five layers whose self time moved most
between the traced runs (``--layers``) of the two sides.  Exit status 1
when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Layer metrics that are not the self time of a layer.
_NOT_LAYERS = ("trace.",)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); one sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    lower = better == "lower"
    b1, mb, b3 = quartiles(base)
    c1, mc, c3 = quartiles(change)

    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    worse_by = ((mc - mb) if lower else (mb - mc)) / mb
    spread = max((b3 - b1) / mb, (c3 - c1) / mc)
    if worse_by > bound and (spread <= bound or all(beats(b, c) for b in base for c in change)):
        return "worse"
    if all(beats(c, b) for c in change for b in base) or (spread <= bound and -worse_by > (b3 - b1) / mb):
        return "better"
    if spread > bound:
        return "unresolved"
    return "same"


def load(paths: Sequence[str]) -> Tuple[Dict[str, Any], Dict[str, Dict[str, List[Dict[str, float]]]]]:
    """(metric spec, {workload: {"runs": [...], "layers": [...]}}) of one side."""
    spec: Dict[str, Any] = {}
    pooled: Dict[str, Dict[str, List[Dict[str, float]]]] = {}
    for path in paths:
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("schema") != "repro-bench/2":
            raise SystemExit(f"{path}: not a repro-bench/2 payload")
        spec = spec or payload["spec"]
        for workload, entry in payload["workloads"].items():
            side = pooled.setdefault(workload, {"runs": [], "layers": []})
            for run in entry["runs"]:
                side["runs"].append({k: m["value"] for k, m in run["metrics"].items()})
            if "layers" in entry:
                side["layers"].append({k: m["value"] for k, m in entry["layers"]["metrics"].items()})
    return spec, pooled


def layer_movers(
    base: List[Dict[str, float]], change: List[Dict[str, float]], units: Dict[str, str], top: int = 5
) -> List[Tuple[str, float, float]]:
    """The ``top`` layers by absolute change of median self time."""
    moves = []
    for name, unit in units.items():
        if unit != "s" or name.startswith(_NOT_LAYERS):
            continue
        mb = statistics.median(run[name] for run in base)
        mc = statistics.median(run[name] for run in change)
        moves.append((name, mb, mc))
    moves.sort(key=lambda move: (-abs(move[2] - move[1]), move[0]))
    return moves[:top]


def report(base_paths: Sequence[str], change_paths: Sequence[str]) -> Tuple[str, bool]:
    """The comparison text and whether any metric got worse."""
    spec, base = load(base_paths)
    _, change = load(change_paths)
    lines: List[str] = []
    any_worse = False
    header = f"{'workload':16} {'metric':20} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'ratio':>7}  verdict"
    lines.append(header)
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run[name] for run in base[workload]["runs"]]
            c = [run[name] for run in change[workload]["runs"]]
            if not b or not c:
                continue
            v = verdict(b, c, metric["better"], metric["bound"])
            any_worse = any_worse or v == "worse"
            b1, mb, b3 = quartiles(b)
            c1, mc, c3 = quartiles(c)
            lines.append(
                f"{workload:16} {name:20} {mb:>12.5g} [{b1:.5g}, {b3:.5g}] {metric['unit']:>5}"
                f" {mc:>12.5g} [{c1:.5g}, {c3:.5g}] {metric['unit']:>5} {mc / mb:>7.3f}  {v}"
            )
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for workload in sorted(set(base) & set(change)):
        if not base[workload]["layers"] or not change[workload]["layers"]:
            continue
        lines.append("")
        lines.append(f"{workload}: layers whose self time moved most (per pass)")
        for name, mb, mc in layer_movers(base[workload]["layers"], change[workload]["layers"], units):
            ratio = f"{mc / mb:.2f}x" if mb else "new"
            lines.append(f"  {name:40} {mb:>11.5g} s -> {mc:>11.5g} s  {mc - mb:+.5g} s  ({ratio})")
    return "\n".join(lines), any_worse


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else -1
    if split < 1 or split == len(argv) - 1:
        print("usage: compare.py BASE*.json -- CHANGE*.json", file=sys.stderr)
        return 2
    text, any_worse = report(argv[:split], argv[split + 1 :])
    print(text)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
