"""Attack 2 (§II-A) — in-network aggregation: silent corruption vs JCT.

Not a numbered paper figure; it quantifies §II-A's Attack 2 claim that
altering in-network control/aggregation messages "inflates flow
completion time (FCT) or job completion times (JCT)" — and its worse
sibling, silent result corruption when the fabric is trusted.
"""

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.systems.tableone import MODES


def run_all_modes():
    run = run_experiment("aggregation")
    return {trial.params["mode"]: trial.result for trial in run.trials}


def test_attack2_aggregation(benchmark, report):
    results = benchmark.pedantic(run_all_modes, rounds=1, iterations=1)
    rows = []
    for mode in MODES:
        result = results[mode]
        rows.append([
            mode,
            f"{result['correct_chunks']}/{result['chunks']}",
            f"{result['jct_rounds']:.2f}",
            result["tampered"],
            result["dropped_at_switch"],
            result["alerts"],
        ])
    report(format_table(
        ["mode", "correct aggregates", "JCT (rounds/chunk)",
         "tampered", "dropped at switch", "alerts"],
        rows, title="Attack 2: in-network aggregation under a MitM"))

    baseline, attack, p4auth = (results[m] for m in MODES)
    assert baseline["correct_chunks"] == baseline["chunks"]
    # The attack silently corrupts a large fraction at no JCT cost.
    assert attack["correct_chunks"] < attack["chunks"] * 0.75
    assert attack["jct_rounds"] == 1.0
    assert attack["alerts"] == 0
    # P4Auth: everything correct, bounded JCT inflation, loud detection.
    assert p4auth["correct_chunks"] == p4auth["chunks"]
    assert 1.0 < p4auth["jct_rounds"] < 4.0
    assert p4auth["alerts"] > 0
