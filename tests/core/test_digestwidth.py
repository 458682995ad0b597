"""Digest-width cost model (§XI): anchors and monotonicity."""

import pytest

from repro.core.digestwidth import (
    SUPPORTED_WIDTHS,
    brute_force_trials,
    digest_width_cost,
    width_sweep,
)


def test_base_width_costs_nothing_extra():
    base = digest_width_cost(32)
    assert base.lanes == 1
    assert base.recirculations == 0


def test_paper_anchor_256_bits():
    base = digest_width_cost(32)
    wide = digest_width_cost(256)
    assert 540 <= wide.hash_unit_increase_pct(base) <= 580  # paper: 560%
    assert wide.stage_increase_pct(base) == 100.0           # paper: 100%


def test_recirculation_cost_is_100s_of_ns():
    wide = digest_width_cost(256)
    assert wide.recirculations == 1
    assert wide.extra_latency_ns >= 300


def test_monotone_in_width():
    sweep = width_sweep()
    for attr in ("hash_units", "stages", "extra_latency_ns"):
        values = [getattr(c, attr) for c in sweep]
        assert values == sorted(values)


def test_compute_doubles_per_doubling():
    """'digest computation ... multiplied by a factor of 2' per size step
    (the lane-time component, before recirculation penalties)."""
    lane_ns_32 = digest_width_cost(32).lanes
    lane_ns_64 = digest_width_cost(64).lanes
    assert lane_ns_64 == 2 * lane_ns_32


def test_unsupported_width_rejected():
    with pytest.raises(ValueError):
        digest_width_cost(48)


def test_brute_force_scaling():
    assert brute_force_trials(32) == 1 << 31
    assert brute_force_trials(64) == 1 << 63
    assert brute_force_trials(256) == 1 << 255
    for width in SUPPORTED_WIDTHS[:-1]:
        assert brute_force_trials(width * 2) > brute_force_trials(width) ** 1.5
