"""Compare two result documents: one row per workload x end-to-end metric.

A row is ``ok`` when B's median is no worse than A's by more than the
metric's bound, ``worse`` when it is, and ``unresolved`` when the
run-to-run spread of either side is wider than the bound (so "no worse"
cannot be told from noise) — unless every run of B reads better than
every run of A.  Ratios are B over A.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

from bench.counts import TIMING_DEPENDENT


@dataclass
class Row:
    workload: str
    metric: str
    median_a: float
    median_b: float
    ratio: float
    bound: float
    #: Widest interquartile range over median of the two sides (None with
    #: fewer than two runs a side).
    spread: Optional[float]
    verdict: str


def spread_of(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def judge(a: Sequence[float], b: Sequence[float], better: str,
          bound: float):
    """(median a, median b, ratio, spread, verdict) for one metric."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spreads = [s for s in (spread_of(a), spread_of(b)) if s is not None]
    spread = max(spreads) if spreads else None
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if spread is not None and spread > bound and not all_better:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    return median_a, median_b, ratio, spread, verdict


def compare_documents(first: dict, second: dict) -> List[Row]:
    rows: List[Row] = []
    bounds, better = first["bounds"], first["better"]
    for workload, record in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        for metric, bound in bounds.items():
            a = [run[metric] for run in record["runs"]]
            b = [run[metric] for run in other["runs"]]
            median_a, median_b, ratio, spread, verdict = judge(
                a, b, better[metric], bound)
            rows.append(Row(workload, metric, median_a, median_b, ratio,
                            bound, spread, verdict))
    return rows


def compare_files(path_a: str, path_b: str) -> List[Row]:
    with open(path_a) as handle:
        first = json.load(handle)
    with open(path_b) as handle:
        second = json.load(handle)
    return compare_documents(first, second)


def deterministic_drift(first: dict, second: dict) -> List[str]:
    """Fingerprints and count metrics that differ between two sets of the
    same code and seeds (they must be identical)."""
    drift: List[str] = []
    for workload, record in first["workloads"].items():
        other = second["workloads"].get(workload, {})
        for seed, found in record["fingerprints"].items():
            again = other.get("fingerprints", {}).get(seed)
            if again is not None and again != found:
                drift.append(f"{workload} seed {seed}: fingerprint")
        for seed, counts in record["counts"].items():
            again = other.get("counts", {}).get(seed, {})
            for name, value in counts.items():
                if workload.startswith("serve_") and name in TIMING_DEPENDENT:
                    continue
                if name in again and again[name] != value:
                    drift.append(f"{workload} seed {seed}: {name} "
                                 f"{value} != {again[name]}")
    return drift


def render(rows: List[Row]) -> str:
    header = (f"{'workload':<14} {'metric':<14} {'median A':>12} "
              f"{'median B':>12} {'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    lines = [header, "-" * len(header)]
    for row in rows:
        spread = "n/a" if row.spread is None else f"{row.spread:.3f}"
        lines.append(
            f"{row.workload:<14} {row.metric:<14} {row.median_a:>12.5g} "
            f"{row.median_b:>12.5g} {row.ratio:>7.3f} {row.bound:>6.2f} "
            f"{spread:>7}  {row.verdict}")
    return "\n".join(lines)
