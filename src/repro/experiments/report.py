"""Small reporting utilities: geometric means and plain-text tables.

The paper aggregates per-instance cost ratios with the geometric mean (more
appropriate for ratios than the arithmetic mean) and reports improvements as
``1 - geomean(ratio)``.  The :class:`Table` helper renders the regenerated
tables as aligned plain text for ``repro repro`` and the benchmark harness
(see the README section "Reproducing the paper's tables and figures").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["geometric_mean", "improvement", "format_percent", "Table"]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (returns 0.0 for an empty input)."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(vals))))


def improvement(ratios: Iterable[float]) -> float:
    """Cost reduction implied by a set of (ours / baseline) cost ratios.

    ``0.25`` means "25% lower cost than the baseline on (geometric) average";
    negative values mean the baseline was better.
    """
    return 1.0 - geometric_mean(ratios)


def format_percent(value: float, digits: int = 0) -> str:
    """Format a fraction as a percentage string (``0.24 -> "24%"``)."""
    return f"{100.0 * value:.{digits}f}%"


@dataclass
class Table:
    """A small plain-text table with a title, column headers and string rows."""

    title: str
    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_text(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

        lines = [self.title, "=" * len(self.title), fmt(self.headers), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in self.rows)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"**{self.title}**", "", "| " + " | ".join(self.headers) + " |"]
        lines.append("|" + "|".join(["---"] * len(self.headers)) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
