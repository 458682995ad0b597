"""Fig 16 — P4Auth prevents traffic imbalance in RouteScout.

Paper: without an adversary RouteScout splits by measured path delay;
with an adversary ~70% of traffic is rerouted to path 2; with P4Auth the
original split is retained and alerts are raised.
"""

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.systems.tableone import MODES


def run_all():
    run = run_experiment("fig16", sweep={"duration_s": [30.0],
                                         "attack_start_s": [8.0]})
    return {trial.params["mode"]: trial.result for trial in run.trials}


def test_fig16_routescout_defense(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    paper = {
        "baseline": "delay-driven split",
        "attack": "~70% on path 2",
        "p4auth": "original split retained",
    }
    for mode in MODES:
        result = results[mode]
        rows.append([
            mode,
            f"{result['share_path1'] * 100:.1f}%",
            f"{result['share_path2'] * 100:.1f}%",
            result["epochs_skipped"],
            result["tamper_events"],
            paper[mode],
        ])
    report(format_table(
        ["mode", "path1 share", "path2 share", "epochs skipped",
         "tamper events", "paper"],
        rows, title="Fig 16: RouteScout traffic distribution"))

    baseline, attack, p4auth = (results[m] for m in MODES)
    assert baseline["share_path1"] > 0.55
    assert attack["share_path2"] > 0.6
    assert abs(p4auth["share_path1"] - baseline["share_path1"]) < 0.05
    assert p4auth["tamper_events"] > 0
