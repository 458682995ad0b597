"""Analysis helpers: statistics and table formatting."""

import math

import pytest

from repro.analysis import format_table, mean, percentile


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_is_nan(self):
        assert math.isnan(mean([]))


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_extremes(self):
        data = list(range(1, 101))
        assert percentile(data, 100) == 100
        assert percentile(data, 1) == 1

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -1)

    def test_unsorted_input(self):
        assert percentile([5, 1, 3, 2, 4], 50) == 3


class TestFormatTable:
    def test_columns_aligned(self):
        table = format_table(["name", "value"],
                             [["x", 1], ["longer", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        # All data rows have the same width.
        assert len(lines[3]) == len(lines[4])

    def test_no_title(self):
        table = format_table(["a"], [["1"]])
        assert table.splitlines()[0].startswith("a")

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table and "b" in table
