"""Verdicts of ``--compare``."""

from bench import compare
from bench.loadgen import percentile, prometheus_sum


def verdict(a, b, better="lower", bound=0.10):
    return compare.judge(a, b, better, bound)[4]


def test_ok_when_within_the_bound():
    assert verdict([1.0, 1.01, 0.99], [1.05, 1.06, 1.04]) == "ok"
    assert verdict([100, 101, 99], [95, 96, 94], better="higher") == "ok"


def test_worse_when_the_median_moves_past_the_bound():
    assert verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19]) == "worse"
    assert verdict([100, 101, 99], [80, 81, 79], better="higher") == "worse"


def test_unresolved_when_spread_exceeds_the_bound():
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert verdict(noisy, [1.0, 1.01, 0.99, 1.0, 1.0]) == "unresolved"
    # ... unless every run of B reads better than every run of A.
    assert verdict(noisy, [0.5, 0.6, 0.55, 0.52, 0.58]) == "ok"


def test_single_runs_have_no_spread():
    assert compare.spread_of([1.0]) is None
    assert verdict([1.0], [1.05]) == "ok"
    assert verdict([1.0], [1.5]) == "worse"


def test_drift_ignores_timing_dependent_counts_on_serve_only():
    first = {"workloads": {
        "serve_http": {"fingerprints": {"1": "a"}, "counts": {"1": {
            "net.simulator.heap_high_water": 5, "net.simulator.events": 9}}},
        "cdp_rw": {"fingerprints": {"1": "b"}, "counts": {"1": {
            "net.simulator.heap_high_water": 5}}}}}
    second = {"workloads": {
        "serve_http": {"fingerprints": {"1": "a"}, "counts": {"1": {
            "net.simulator.heap_high_water": 6, "net.simulator.events": 9}}},
        "cdp_rw": {"fingerprints": {"1": "c"}, "counts": {"1": {
            "net.simulator.heap_high_water": 6}}}}}
    drift = compare.deterministic_drift(first, second)
    assert len(drift) == 2 and all(line.startswith("cdp_rw") for line in drift)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_prometheus_sum_adds_every_series_of_one_metric():
    page = ('repro_store_journal_bytes_total{shard="a"} 10\n'
            'repro_store_journal_bytes_total{shard="b"} 5.5\n'
            'repro_store_journal_bytes_total_other 99\n')
    assert prometheus_sum(page, "repro_store_journal_bytes_total") == 15.5
