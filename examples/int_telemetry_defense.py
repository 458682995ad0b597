#!/usr/bin/env python3
"""INT telemetry protection (the secINT scenario the paper cites).

A 4-hop INT chain with a periodically congested middle hop.  A MitM just
downstream of the hotspot rewrites congested telemetry records into
healthy ones — blinding the operator.  P4Auth turns the silent lie into
loud, attributable drops.

Run:  python examples/int_telemetry_defense.py
"""

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.systems.tableone import MODES


def main() -> None:
    run = run_experiment("int")
    rows = []
    for mode in MODES:
        result = run.result_for(mode=mode)
        rows.append([
            mode,
            f"{result['probes_collected']}/{result['probes_sent']}",
            f"{result['reported_max_hop_latency_us']} us",
            f"{result['true_max_hop_latency_us']} us",
            "yes" if result["congestion_visible"] else "no",
            "yes" if result["detected"] else "NO — silent blind spot",
            result["alerts"],
        ])
    print(format_table(
        ["mode", "probes collected", "reported max hop", "true max hop",
         "congestion visible", "operator aware", "alerts"],
        rows, title="INT telemetry under a record-rewriting MitM"))
    print(
        "\nUnprotected, the attack erases the congestion signal without a\n"
        "trace: the collector receives every probe and they all look\n"
        "healthy.  With P4Auth, the rewritten probes fail per-link digest\n"
        "verification at the next switch — the operator loses those\n"
        "samples but *knows* telemetry is being suppressed, and where."
    )


if __name__ == "__main__":
    main()
