"""Fig 17 — P4Auth prevents congestion on HULA's compromised path.

Paper: equal thirds without an adversary; >70% of traffic through the
compromised S1-S4 link with the MitM; traffic off that link entirely with
P4Auth (tampered probes dropped, alerts raised).
"""

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.systems.tableone import MODES


def run_all():
    run = run_experiment("fig17", sweep={"duration_s": [5.0]})
    return {trial.params["mode"]: trial.result for trial in run.trials}


def test_fig17_hula_defense(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    paper = {
        "baseline": "≈ equal thirds",
        "attack": ">70% via S4",
        "p4auth": "compromised link blocked",
    }
    rows = []
    for mode in MODES:
        result = results[mode]
        rows.append([
            mode,
            f"{result['shares']['s2'] * 100:.1f}%",
            f"{result['shares']['s3'] * 100:.1f}%",
            f"{result['shares']['s4'] * 100:.1f}%",
            result["probes_tampered"],
            result["alerts"],
            paper[mode],
        ])
    report(format_table(
        ["mode", "via S2", "via S3", "via S4", "probes tampered",
         "alerts", "paper"],
        rows, title="Fig 17: HULA traffic distribution (after warmup)"))

    baseline, attack, p4auth = (results[m] for m in MODES)
    assert all(0.2 < share < 0.5 for share in baseline["shares"].values())
    assert attack["shares"]["s4"] > 0.7
    assert p4auth["shares"]["s4"] < 0.05
    assert p4auth["alerts"] > 0
