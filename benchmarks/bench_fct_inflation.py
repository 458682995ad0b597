"""FCT inflation under the HULA attack (§II-A's headline consequence).

Fig 3 with its utilization numbers taken literally and FIFO output
queues on every fabric link: the MitM steering traffic onto the
50%-loaded path overloads it and inflates delivery latency by an order
of magnitude; P4Auth keeps latency at the baseline.
"""

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.systems.tableone import MODES


def run_all_modes():
    run = run_experiment("fct", sweep={"duration_s": [2.5]})
    return {trial.params["mode"]: trial.result for trial in run.trials}


def test_fct_inflation(benchmark, report):
    results = benchmark.pedantic(run_all_modes, rounds=1, iterations=1)
    rows = []
    for mode in MODES:
        result = results[mode]
        rows.append([
            mode,
            f"{result['mean_latency_s'] * 1e3:.2f}",
            f"{result['p95_latency_s'] * 1e3:.2f}",
            f"{result['share_via_s4'] * 100:.0f}%",
            result["alerts"],
        ])
    report(format_table(
        ["mode", "mean latency (ms)", "p95 latency (ms)",
         "share via S4", "alerts"],
        rows, title="FCT inflation: Fig 3 with real link queues"))

    baseline, attack, p4auth = (results[m] for m in MODES)
    # The attack inflates delivery latency by at least an order of
    # magnitude; P4Auth restores the baseline.
    assert attack["mean_latency_s"] > 10 * baseline["mean_latency_s"]
    assert p4auth["mean_latency_s"] < 1.5 * baseline["mean_latency_s"]
    assert attack["share_via_s4"] > 0.9
    assert p4auth["share_via_s4"] < 0.05
    assert p4auth["alerts"] > 0
