"""Machine-speed probe: a fixed loop timed between a run's measurements.

The machine this benchmark was calibrated on runs the same code up to 1.5x
slower in spells of tens of milliseconds to minutes, set by other tenants'
load (README.md, "Why times are scaled").  A run therefore times a fixed
probe — a pure-Python loop and a small numpy loop, independent of the
program under test — between its measurements, on the same CPU, and reports
every time scaled to the speed at which the probe takes
:data:`REFERENCE_PROBE_S`::

    reported = measured * REFERENCE_PROBE_S / mean(probe times of the run)

A change to the program moves the measured times and not the probe, so it
moves the reported times by the same factor.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

#: The probe's time at reference speed (about its time on the calibration
#: machine): a run whose probes average this reports times as measured.
REFERENCE_PROBE_S = 0.002
#: Least time between two probes of :meth:`Speed.maybe_probe`.
PROBE_INTERVAL_S = 0.02

_MATRIX = np.random.default_rng(0).random((64, 64))


def probe() -> float:
    """Seconds the fixed probe takes now (about 2 ms at reference speed)."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    a = _MATRIX
    for _ in range(30):
        a = np.maximum(a @ _MATRIX * 0.01, _MATRIX[::-1])
    return time.perf_counter() - start


class Speed:
    """The probe times of one run and the scale factor they give."""

    def __init__(self) -> None:
        for _ in range(3):  # untimed: first calls pay for numpy's set-up
            probe()
        self.times: List[float] = []
        self._last = -math.inf

    def probe(self) -> None:
        self.times.append(probe())
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Probe unless the last probe ended less than :data:`PROBE_INTERVAL_S` ago."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def probe_s(self) -> float:
        """Mean probe time of the run."""
        return statistics.mean(self.times)


def factor(probe_s: float) -> float:
    """Reference seconds per measured second for a run whose probes averaged ``probe_s``."""
    return REFERENCE_PROBE_S / probe_s


def scale(value: float, unit: str, probe_s: float) -> float:
    """``value`` in ``unit`` at reference speed: times shrink on a slow machine, rates grow."""
    if unit in ("s", "us"):
        return value * factor(probe_s)
    if unit.startswith("req/"):
        return value / factor(probe_s)
    return value
