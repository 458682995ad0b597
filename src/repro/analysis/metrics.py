"""Dependency-light statistics and the ASCII tables of ``repro run``."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def total(samples: Iterable[float]) -> float:
    """The left-to-right sum: the same bits on every interpreter (the
    built-in ``sum`` compensates float rounding from CPython 3.12 on)."""
    result = 0
    for sample in samples:
        result += sample
    return result


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; NaN for empty input."""
    if not samples:
        return math.nan
    return total(samples) / len(samples)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; NaN for empty input."""
    if not samples:
        return math.nan
    if not 0 <= pct <= 100:
        raise ValueError("pct must be in [0, 100]")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(pct / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def format_table(headers: List[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an ASCII table (trials, paper claims, example figures)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in materialized:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
