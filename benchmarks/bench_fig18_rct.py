"""Fig 18 — register read/write request completion time (RCT).

Paper: P4Auth has minimal impact on RCT relative to DP-Reg-RW; the
P4Runtime stack pays extra per-request overhead; writes cost more than
reads because the controller composes both the index and the data.
"""

import pytest

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.runtime.comparison import STACKS


def run_matrix(**sweep):
    run = run_experiment("fig18",
                         sweep={key: [value] for key, value in sweep.items()})
    return {(t.params["stack"], t.params["kind"]): t.result
            for t in run.trials}


def test_fig18_request_completion_time(benchmark, report):
    table = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    rows = []
    for name in STACKS:
        rows.append([
            name,
            f"{table[(name, 'read')]['mean_rct_s'] * 1e6:.1f}",
            f"{table[(name, 'write')]['mean_rct_s'] * 1e6:.1f}",
        ])
    report(format_table(
        ["stack", "read RCT (us)", "write RCT (us)"],
        rows, title="Fig 18: register read/write request completion time"))

    # Shapes: P4Auth ~= DP-Reg-RW (minimal impact); writes > reads.
    for kind in ("read", "write"):
        plain = table[("DP-Reg-RW", kind)]["mean_rct_s"]
        auth = table[("P4Auth", kind)]["mean_rct_s"]
        assert auth == pytest.approx(plain, rel=0.10)
    for name in STACKS:
        assert (table[(name, "write")]["mean_rct_s"]
                > table[(name, "read")]["mean_rct_s"])


def test_fig18_rct_distribution(benchmark, report):
    """The paper plots RCT as a CDF; with transit jitter enabled the
    measurement yields a distribution whose ordering holds at every
    percentile."""
    table = benchmark.pedantic(
        run_matrix, kwargs={"duration_s": 5.0, "jitter_fraction": 0.15},
        rounds=1, iterations=1)
    rows = []
    for name in STACKS:
        stats = table[(name, "read")]
        rows.append([name] + [f"{stats[f'p{pct}_rct_s'] * 1e6:.0f}"
                              for pct in (5, 50, 95)])
    report(format_table(
        ["stack", "read RCT p5 (us)", "p50 (us)", "p95 (us)"],
        rows, title="Fig 18 (CDF view): read RCT percentiles, 15% jitter"))
    for key in ("p5_rct_s", "p50_rct_s", "p95_rct_s"):
        assert (table[("DP-Reg-RW", "read")][key]
                <= table[("P4Auth", "read")][key]
                <= table[("P4Runtime", "read")][key] * 1.05)
