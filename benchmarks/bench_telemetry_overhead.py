"""Telemetry overhead — the disabled fast path must stay under 2%.

Every instrumented hot path guards its telemetry work behind an
``enabled`` check (or a shared null object whose mutators are no-ops),
so a run without telemetry should pay essentially nothing.  Timing two
full runs against each other is hopelessly noisy at the ~1% level on a
shared CI box, so the bound is computed structurally instead:

1. run the Fig 18 RCT workload once *with* telemetry and count how many
   metric/trace touchpoints the workload actually hits;
2. microbenchmark the disabled-path cost of one touchpoint (an
   ``enabled`` check plus a null-object method call);
3. assert touchpoints x per-touchpoint-cost < 2% of the *disabled*
   run's wall time.

A wall-clock comparison of the two runs is still printed for eyeballing.
"""

import time

import pytest

from repro.analysis import format_table
from repro.engine import TrialContext, get_spec
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: The measured workload (sequential reads+writes on all three stacks).
DURATION_S = 2.0


def fig18(duration_s, telemetry=NULL_TELEMETRY):
    """Every Fig 18 trial, each handed the one shared ``telemetry``."""
    spec = get_spec("fig18")
    plans = spec.expand(sweep={"duration_s": [duration_s],
                               "include_samples": [True]})
    return [spec.trial(TrialContext(plan.params, plan.seed,
                                    telemetry=telemetry))
            for plan in plans]


def _run_disabled():
    start = time.perf_counter()
    fig18(DURATION_S)
    return time.perf_counter() - start


def _run_enabled():
    telemetry = Telemetry(enabled=True)
    start = time.perf_counter()
    fig18(DURATION_S, telemetry)
    return time.perf_counter() - start, telemetry


def _touchpoint_count(telemetry):
    """Upper bound on telemetry calls the workload performed.

    Every counter increment, histogram observation, and trace event in
    the enabled run corresponds to at most a few guarded no-ops in the
    disabled run; summing them over-counts (enabled-only work like
    per-run gauge updates is included), which only makes the bound
    stricter.
    """
    total = telemetry.tracer.emitted
    for metric in telemetry.metrics:
        if metric.kind == "histogram":
            total += metric.count
        else:
            total += max(1, int(metric.value))
    return total


def _null_op_cost_s(iterations=200_000):
    """Seconds per disabled-path touchpoint (guard + null method)."""
    telemetry = NULL_TELEMETRY
    metrics = telemetry.metrics
    start = time.perf_counter()
    for _ in range(iterations):
        if telemetry.enabled:
            metrics.counter("bench_total").inc()
        metrics.counter("bench_total").inc()  # null-object path
        telemetry.tracer.emit("bench")
    elapsed = time.perf_counter() - start
    # Each iteration covered three guarded/no-op touchpoints.
    return elapsed / (iterations * 3)


def test_disabled_telemetry_overhead_under_two_percent(report):
    disabled_s = _run_disabled()
    enabled_s, telemetry = _run_enabled()
    touchpoints = _touchpoint_count(telemetry)
    null_op_s = _null_op_cost_s()
    bound_s = touchpoints * null_op_s
    overhead_pct = bound_s / disabled_s * 100.0

    report(format_table(
        ["quantity", "value"],
        [["disabled run (s)", f"{disabled_s:.3f}"],
         ["enabled run (s)", f"{enabled_s:.3f}"],
         ["telemetry touchpoints", touchpoints],
         ["cost per disabled touchpoint (ns)", f"{null_op_s * 1e9:.1f}"],
         ["disabled-path overhead bound", f"{overhead_pct:.3f}%"]],
        title="Telemetry overhead (Fig 18 RCT workload)"))

    assert touchpoints > 0, "enabled run must exercise the instrumentation"
    assert overhead_pct < 2.0, (
        f"disabled telemetry costs {overhead_pct:.2f}% of the workload; "
        "the fast path must stay under 2%")


def test_enabled_run_matches_disabled_results():
    """Instrumentation must not perturb simulation outcomes."""
    assert fig18(1.0, Telemetry(enabled=True)) == fig18(1.0)
