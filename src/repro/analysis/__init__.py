"""Measurement utilities: summary statistics and result tables."""

from repro.analysis.metrics import (
    mean,
    percentile,
    format_table,
)

__all__ = ["mean", "percentile", "format_table"]
