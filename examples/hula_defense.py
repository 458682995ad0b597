#!/usr/bin/env python3
"""HULA under attack (the paper's Fig 3 / Fig 17 scenario).

Runs the five-switch topology three times — without an adversary, with a
MitM rewriting probe utilization on the S1-S4 link, and with P4Auth
protecting the probes — and prints the traffic distribution across S1's
three uplinks in each case.

Run:  python examples/hula_defense.py
"""

from repro.analysis import format_table
from repro.engine import run_experiment
from repro.systems.tableone import MODES


def main() -> None:
    print("Running HULA scenarios (a few seconds of simulated traffic "
          "each)...\n")
    run = run_experiment("fig17", sweep={"duration_s": [4.0]})
    rows = []
    for mode in MODES:
        result = run.result_for(mode=mode)
        rows.append([mode] + [f"{result['shares'][path] * 100:5.1f}%"
                              for path in ("s2", "s3", "s4")]
                    + [result["probes_tampered"], result["alerts"]])
    print(format_table(
        ["mode", "via S2", "via S3", "via S4", "tampered probes", "alerts"],
        rows, title="Traffic leaving S1, per uplink (post-warmup)"))
    print(
        "\nWithout an adversary HULA spreads load roughly equally; the\n"
        "MitM drags >70% of traffic onto the compromised S1-S4 link; with\n"
        "P4Auth the tampered probes fail digest verification at S1, the\n"
        "controller is alerted, and the compromised link carries nothing."
    )


if __name__ == "__main__":
    main()
