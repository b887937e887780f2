"""End-to-end benchmark of the scheduling reproduction: four workloads.

One workload run (the form the repo's ``BENCHMARK.json`` command takes)::

    python3 benchmarks/e2e/run.py --workload pipeline-hc --seed 7 --seconds 20 --trace 0

prints every end-to-end metric with its unit — or, with ``--trace 1``,
every per-layer metric — checks the program's outputs, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1
when an output is wrong and 2 when the checkout has no ``src/repro``.

The whole suite, written as a ``repro-bench/2`` payload::

    python3 benchmarks/e2e/run.py --seed 7 --out BENCH_e2e.json [--layers] [--runs 5] [--smoke]

``--runs N`` repeats each workload with seeds ``seed .. seed+N-1``;
``--layers`` adds one traced run per workload; ``--smoke`` runs every
workload at about 1/20 of its size.  Compare two payload sets with
``compare.py``.  Workloads, metrics and bounds are defined in
``BENCHMARK.json`` and explained in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import procs

if TYPE_CHECKING:
    from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro-bench/2"
#: Fresh-interpreter starts whose median is ``setup_s``.
SETUP_STARTS = 7
SMOKE_SETUP_STARTS = 2
#: Starts per entry point behind the import-layer metrics of a traced run.
LAYER_STARTS = 3
#: Speed probes before every timed start.
PROBES_PER_START = 3
CHILD_TIMEOUT = 150.0


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def serve_workload(name: str) -> bool:
    from workloads import SERVE

    return name in SERVE


# ----------------------------------------------------------------------
# Set-up time: fresh interpreter starts
# ----------------------------------------------------------------------
def library_start(env: Dict[str, str]) -> float:
    """Seconds from spawning an interpreter until ``repro.api`` and the registry are imported."""
    cmd = [sys.executable, "-c", "import repro.api, repro.registry; print('ready', flush=True)"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    try:
        procs.wait_for_line(proc, re.compile(rb"^ready"), 60.0)
        return time.perf_counter() - start
    finally:
        procs.reap(proc, timeout=30.0, terminate=False)


def daemon_start(env: Dict[str, str], work: Path) -> float:
    """Seconds from spawning ``repro serve`` until it prints ``listening``."""
    work.mkdir(parents=True, exist_ok=True)
    proc, _, seconds = procs.start_daemon(procs.daemon_command(work / "cache"), env)
    # Nothing to drain: kill at once instead of waiting out the accept loop.
    procs.reap(proc, timeout=0.0)
    return seconds


def probed_start(start: Callable[[], float], probes: Speed) -> float:
    """One timed start, after the speed probes that scale it."""
    for _ in range(PROBES_PER_START):
        probes.probe()
    return start()


def median_start(start: Callable[[], float], starts: int, probes: Speed) -> float:
    start()  # untimed: fills __pycache__ and the page cache
    return statistics.median(probed_start(start, probes) for _ in range(starts))


def pin_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The speed probes then time the CPU the measured work ran on: the two
    CPUs of a shared virtual machine need not be equally fast at one time.
    A closed-loop client and its daemon hand over on that CPU without a
    cross-CPU wake-up, and only one of them works at a time either way.
    Call it before this process imports numpy (``speed`` does), so that
    numpy's BLAS threads are started on that CPU too.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path) -> Dict[str, Any]:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
        "--work", str(work),
    ] + (["--smoke"] if smoke else [])
    # A session of its own, so a timeout also stops the daemon a serve run started.
    proc = subprocess.Popen(cmd, env=procs.library_env(ROOT), stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(
    workload: str, seed: int, seconds: float, *, trace: bool, smoke: bool, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """One run: set-up starts and the child; returns the run record."""
    import speed

    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    lib_env = procs.library_env(ROOT)
    setup: Dict[str, float] = {}
    probes = speed.Speed()
    try:
        if trace:
            starts = SMOKE_SETUP_STARTS if smoke else LAYER_STARTS
            lib_start = functools.partial(library_start, lib_env)
            setup["import.repro_api_s"] = median_start(lib_start, starts, probes)
            serve_start = functools.partial(daemon_start, lib_env, work / "starts")
            setup["serve.start_s"] = median_start(serve_start, starts, probes)
            child = run_child(workload, seed, seconds, trace, smoke, work / "child")
        else:
            if serve_workload(workload):
                start = functools.partial(daemon_start, lib_env, work / "starts")
            else:
                start = functools.partial(library_start, lib_env)
            # The starts straddle the child run, so one slow spell of a
            # shared machine cannot hold most of them.
            starts = SMOKE_SETUP_STARTS if smoke else SETUP_STARTS
            start()  # untimed: fills __pycache__ and the page cache
            setups = [probed_start(start, probes) for _ in range((starts + 1) // 2)]
            child = run_child(workload, seed, seconds, trace, smoke, work / "child")
            setups += [probed_start(start, probes) for _ in range(starts - len(setups))]
            setup["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    # Every time is scaled by the probes of the process that measured it.
    probe_s = {name: probes.probe_s() for name in setup}
    measured = dict(setup)
    for name, value in child["metrics"].items():
        measured[name] = value
        probe_s[name] = child["probe_s"]
    attempted, failed = int(child["attempted"]), int(child["failed"])
    if not trace:
        measured["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
    metrics: Dict[str, Dict[str, Any]] = {}
    problems = list(child.get("problems", []))
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        # Layers a workload never enters read 0: their spans never open.
        value = float(measured.get(name, 0.0)) if trace else float(measured[name])
        if name in probe_s:
            value = speed.scale(value, unit, probe_s[name])
        metrics[name] = {"value": value, "unit": unit}
        if not math.isfinite(value) or (not trace and value <= 0):
            problems.append(f"metric {name} = {value}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "note": child["note"],
        # Mean probe times: above speed.REFERENCE_PROBE_S, the times
        # measured were longer than the times reported.
        "probe_s": {"setup": probes.probe_s(), "run": child["probe_s"]},
    }


def print_run(run: Dict[str, Any]) -> None:
    import speed

    kind = "per-layer" if run["trace"] else "end-to-end"
    print(f"{run['workload']}  seed {run['seed']}  {kind} metrics  ({run['note']})")
    probe = run["probe_s"]
    print(
        f"  times at reference speed: measured times x {speed.factor(probe['setup']):.4f} (set-up),"
        f" x {speed.factor(probe['run']):.4f} (run)"
    )
    width = max(len(name) for name in run["metrics"])
    for name, metric in run["metrics"].items():
        print(f"  {name.ljust(width)}  {metric['value']:>14.6g} {metric['unit']}")
    verdict = "outputs correct" if run["correct"] else "OUTPUTS WRONG"
    print(f"  {verdict}: {run['attempted']} attempted, {run['failed']} failed")
    for problem in run["problems"]:
        print(f"  problem: {problem}")


# ----------------------------------------------------------------------
# Machine record
# ----------------------------------------------------------------------
def calibration_s() -> Dict[str, float]:
    """Median time of a fixed pure-Python loop, a fixed numpy loop and the speed probe."""
    import numpy as np
    import speed

    def python_loop() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return time.perf_counter() - start

    def numpy_loop() -> float:
        a = np.random.default_rng(0).random((256, 256))
        start = time.perf_counter()
        for _ in range(20):
            a = a @ a
            a /= a.max()
        return time.perf_counter() - start

    return {
        "python_s": statistics.median(python_loop() for _ in range(5)),
        "numpy_s": statistics.median(numpy_loop() for _ in range(5)),
        "probe_s": statistics.median(speed.probe() for _ in range(20)),
    }


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int) -> Dict[str, Any]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "seed": seed,
        "calibration": calibration_s(),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark (see README.md)")
    parser.add_argument("--workload", help="run one workload and print the result line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--layers", action="store_true", help="suite: one traced run per workload")
    parser.add_argument("--runs", type=int, default=1, help="suite: runs per workload (seeds seed..)")
    parser.add_argument("--smoke", action="store_true", help="about 1/20 of every workload")
    parser.add_argument("--out", help="suite: write the repro-bench/2 payload here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_one_cpu()
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else float(spec["run_seconds"]))

    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
        print(f"# env {json.dumps(machine_record(args.seed), sort_keys=True)}")
        try:
            run = run_workload(
                args.workload, args.seed, seconds, trace=bool(args.trace), smoke=args.smoke, spec=spec
            )
        except (RuntimeError, OSError, subprocess.TimeoutExpired, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_run(run)
        print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if run["correct"] else 1

    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "env": machine_record(args.seed),
        "seconds": seconds,
        "smoke": args.smoke,
        "spec": {key: spec[key] for key in ("end_to_end", "per_layer")},
        "workloads": {},
    }
    correct = True
    for workload in names:
        entry: Dict[str, Any] = {"runs": []}
        for k in range(args.runs):
            run = run_workload(workload, args.seed + k, seconds, trace=False, smoke=args.smoke, spec=spec)
            print_run(run)
            entry["runs"].append(run)
            correct = correct and run["correct"]
        if args.layers:
            traced = run_workload(workload, args.seed, seconds, trace=True, smoke=args.smoke, spec=spec)
            print_run(traced)
            entry["layers"] = traced
            correct = correct and traced["correct"]
            untraced = entry["runs"][0]["metrics"]["wall_s"]["value"]
            entry["trace_overhead"] = traced["metrics"]["trace.pass_s"]["value"] / untraced
            print(f"  tracing overhead (traced pass / untraced wall_s): {entry['trace_overhead']:.3f}x")
        payload["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
