"""INT manipulation (the secINT scenario the paper cites in §I/§X).

Quantifies telemetry blinding: an on-path MitM rewrites congested INT
records into healthy ones.  Unprotected, the operator's view is silently
false; with P4Auth the tampered probes are dropped loudly.
"""

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.systems.tableone import MODES


def run_all_modes():
    run = run_experiment("int")
    return {trial.params["mode"]: trial.result for trial in run.trials}


def test_int_manipulation(benchmark, report):
    results = benchmark.pedantic(run_all_modes, rounds=1, iterations=1)
    rows = []
    for mode in MODES:
        result = results[mode]
        rows.append([
            mode,
            f"{result['probes_collected']}/{result['probes_sent']}",
            result["reported_max_hop_latency_us"],
            result["true_max_hop_latency_us"],
            "yes" if result["congestion_visible"] else "no",
            "yes" if result["detected"] else "NO (silent)",
            result["alerts"],
        ])
    report(format_table(
        ["mode", "probes collected", "reported max hop (us)",
         "true max hop (us)", "congestion visible", "operator aware",
         "alerts"],
        rows, title="INT manipulation (secINT scenario)"))

    assert results["baseline"]["congestion_visible"]
    assert not results["attack"]["detected"]
    assert results["p4auth"]["detected"]
    assert results["p4auth"]["alerts"] > 0
