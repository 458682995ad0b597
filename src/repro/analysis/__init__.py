"""Measurement utilities: summary statistics and result tables."""
