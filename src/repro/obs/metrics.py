"""Stdlib-only metrics primitives: counters, gauges, bounded histograms.

One :class:`Metrics` registry owns a set of named instruments.  The serve
worker pool, the solution cache and the queue worker each hold their own
registry (no process-global state, so tests never leak counters into each
other), and the daemon merges them into one Prometheus text exposition for
the ``metrics`` wire op.

Design constraints:

* every instrument is thread-safe on its own (one small lock per
  instrument) — callers never need an external lock to bump a counter;
* histograms are *bounded*: a fixed-size ring buffer backs the percentile
  window, so a long-running daemon's memory does not grow with traffic
  (``count`` and ``sum`` still accumulate over the full lifetime);
* counters accept negative increments — the serve pool counts a response
  *before* delivering it and undoes the count when it loses the respond
  race to the deadline monitor;
* percentiles use the same nearest-rank rule the serve stats endpoint has
  always reported (:func:`percentiles` moved here from ``serve/pool.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "percentiles",
    "render_prometheus",
]

Number = Union[int, float]

#: Default percentile window of a histogram (matches the serve pool's
#: historical latency window).
DEFAULT_WINDOW = 2048

#: (name, sorted label items) — the registry key of one instrument.
_InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def percentiles(
    values: List[float], points: Sequence[float] = (50.0, 90.0, 99.0)
) -> Dict[str, float]:
    """Nearest-rank percentiles of ``values`` (empty input -> zeros)."""
    out: Dict[str, float] = {}
    ordered = sorted(values)
    for point in points:
        key = f"p{point:g}"
        if not ordered:
            out[key] = 0.0
        else:
            rank = max(0, min(len(ordered) - 1, int(round(point / 100.0 * len(ordered))) - 1))
            out[key] = ordered[rank]
    return out


def _label_key(labels: Optional[Dict[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone-by-convention counter (negative increments undo a count)."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels: Tuple[Tuple[str, str], ...] = _label_key(labels)
        self._lock = threading.Lock()
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def sample_lines(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} {_format_number(self.value)}"]


class Gauge:
    """A value that goes up and down (queue depth, LRU occupancy, uptime)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels: Tuple[Tuple[str, str], ...] = _label_key(labels)
        self._lock = threading.Lock()
        self._value: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def sample_lines(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} {_format_number(self.value)}"]


class Histogram:
    """Ring-buffer histogram: bounded percentile window, unbounded count/sum.

    ``observe`` is O(1) and never allocates once the window is full; the
    window holds the most recent ``window`` observations in insertion order,
    which is exactly the sliding-window semantics the serve stats endpoint
    reported from its (previously unbounded) latency list.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "window", "_lock", "_values", "_pos", "_count", "_sum")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if window < 1:
            raise ValueError("histogram window must be >= 1")
        self.name = name
        self.help = help
        self.labels: Tuple[Tuple[str, str], ...] = _label_key(labels)
        self.window = int(window)
        self._lock = threading.Lock()
        self._values: List[float] = []
        self._pos = 0
        self._count = 0
        self._sum = 0.0

    def observe(self, value: Number) -> None:
        with self._lock:
            self._count += 1
            self._sum += float(value)
            if len(self._values) < self.window:
                self._values.append(float(value))
            else:
                self._values[self._pos] = float(value)
                self._pos = (self._pos + 1) % self.window

    @property
    def count(self) -> int:
        """Observations over the instrument's lifetime (not window-bounded)."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations over the instrument's lifetime."""
        with self._lock:
            return self._sum

    def values(self) -> List[float]:
        """The current window, oldest observation first."""
        with self._lock:
            if len(self._values) < self.window:
                return list(self._values)
            return self._values[self._pos :] + self._values[: self._pos]

    def recent(self, n: int) -> List[float]:
        """The most recent ``min(n, window)`` observations, oldest first."""
        return self.values()[-max(0, int(n)) :]

    def percentiles(self, points: Sequence[float] = (50.0, 90.0, 99.0)) -> Dict[str, float]:
        """Nearest-rank percentiles over the current window."""
        return percentiles(self.values(), points)

    def sample_lines(self) -> List[str]:
        window = self.values()
        pcts = percentiles(window)
        lines = []
        for point, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            labels = self.labels + (("quantile", f"{point:g}"),)
            lines.append(f"{self.name}{_render_labels(labels)} {_format_number(pcts[key])}")
        suffix = _render_labels(self.labels)
        lines.append(f"{self.name}_sum{suffix} {_format_number(self.sum)}")
        lines.append(f"{self.name}_count{suffix} {_format_number(self.count)}")
        return lines


Instrument = Union[Counter, Gauge, Histogram]


class Metrics:
    """A named registry of instruments (get-or-create, type-checked).

    ``counter`` / ``gauge`` / ``histogram`` return the existing instrument
    for a ``(name, labels)`` pair, so call sites can resolve instruments
    lazily without caching them; creating the same name with two different
    kinds is a programming error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "OrderedDict[_InstrumentKey, Instrument]" = OrderedDict()

    def counter(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        instrument = self._instrument(Counter, name, help, labels)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None) -> Gauge:
        instrument = self._instrument(Gauge, name, help, labels)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
        window: int = DEFAULT_WINDOW,
    ) -> Histogram:
        with self._lock:
            key = (name, _label_key(labels))
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} is already registered as a {existing.kind}"
                    )
                return existing
            instrument = Histogram(name, help, labels, window=window)
            self._instruments[key] = instrument
            return instrument

    def _instrument(
        self, cls: type, name: str, help: str, labels: Optional[Dict[str, str]]
    ) -> Instrument:
        with self._lock:
            key = (name, _label_key(labels))
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} is already registered as a {existing.kind}"
                    )
                return existing
            instrument: Instrument = cls(name, help, labels)
            self._instruments[key] = instrument
            return instrument

    def instruments(self) -> List[Instrument]:
        """Every registered instrument, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def to_prometheus(self) -> str:
        """This registry alone in Prometheus text exposition format."""
        return render_prometheus(self.instruments())


def render_prometheus(instruments: Iterable[Instrument]) -> str:
    """Prometheus text exposition of any instrument collection.

    Counters and gauges render as single samples, histograms as summaries
    (nearest-rank ``quantile`` samples over the bounded window, plus the
    lifetime ``_sum`` / ``_count``).  Instruments sharing a name (labeled
    counter families) share one ``HELP``/``TYPE`` header.
    """
    by_name: "OrderedDict[str, List[Instrument]]" = OrderedDict()
    for instrument in instruments:
        by_name.setdefault(instrument.name, []).append(instrument)
    lines: List[str] = []
    for name, family in by_name.items():
        first = family[0]
        help_text = first.help or name
        kind = "summary" if isinstance(first, Histogram) else first.kind
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for instrument in family:
            lines.extend(instrument.sample_lines())
    return "\n".join(lines) + "\n" if lines else ""


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in labels)
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_number(value: Number) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
