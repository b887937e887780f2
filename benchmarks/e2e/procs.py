"""Child-process helpers shared by ``run.py`` and ``child.py`` (stdlib only).

Every process the benchmark starts is waited for: :func:`reap` collects the
exit status together with the child's resource usage (``ru_maxrss`` is the
``peak_rss_mb`` metric of the serve workloads), and kills a child that does
not exit in time.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_LISTENING = re.compile(rb"listening on ([^\s:]+):(\d+)")


def library_env(root: Path, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment running the checkout's ``src/`` with no inherited REPRO_* knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra or {})
    return env


def daemon_command(cache_dir: Path, trace_file: Optional[Path] = None) -> List[str]:
    """``repro serve`` on an ephemeral port with two worker threads."""
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2"]
    cmd += ["--cache-dir", str(cache_dir)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    return cmd


def wait_for_line(proc: subprocess.Popen, pattern: "re.Pattern[bytes]", timeout: float) -> "re.Match[bytes]":
    """Read ``proc``'s stdout until a line matches ``pattern``."""
    assert proc.stdout is not None
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no line matching {pattern.pattern!r} within {timeout}s")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"process exited before printing {pattern.pattern!r}")
        match = pattern.search(line)
        if match:
            return match


def start_daemon(
    cmd: List[str],
    env: Dict[str, str],
    *,
    stderr=subprocess.DEVNULL,
    timeout: float = 60.0,
) -> Tuple[subprocess.Popen, Tuple[str, int], float]:
    """Start the daemon; returns (process, address, seconds until it listens)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=stderr)
    try:
        match = wait_for_line(proc, _LISTENING, timeout)
    except BaseException:
        reap(proc, timeout=0.0)
        raise
    seconds = time.perf_counter() - start
    return proc, (match.group(1).decode(), int(match.group(2))), seconds


def reap(proc: subprocess.Popen, *, timeout: float = 30.0, terminate: bool = True):
    """Stop ``proc`` (SIGTERM, SIGKILL after ``timeout``) and wait for it.

    Returns the child's ``resource.struct_rusage``.  Signals go through
    ``os.kill`` and the wait through ``os.wait4``: ``Popen.poll`` would reap
    the child and lose its resource usage.
    """
    usage = None
    if proc.returncode is None:
        if terminate:
            os.kill(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return usage
