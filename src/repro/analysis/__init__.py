"""Measurement utilities: summary statistics and result tables."""

from repro.analysis.metrics import (
    mean,
    percentile,
    format_table,
    total,
)

__all__ = ["mean", "percentile", "format_table", "total"]
