#!/usr/bin/env python3
"""Export the P4Auth data plane as a P4-16 program skeleton.

The paper's prototype is a ~400-line P4 program (§VII).  This example
builds a protected switch and emits the equivalent P4-16 skeleton —
headers, parser, the ten P4Auth register arrays, the Fig 15 mapping
table with the live entries, and the verify/sign control blocks — all
derived from the running configuration.

Run:  python examples/export_p4.py [output.p4]
"""

import sys

from repro.core.auth_dataplane import P4AuthDataplane
from repro.dataplane.p4gen import generate_p4, loc_estimate
from repro.dataplane.switch import DataplaneSwitch


def build_dataplane() -> P4AuthDataplane:
    switch = DataplaneSwitch("s1", num_ports=64)
    # The application registers a RouteScout-style deployment would expose.
    switch.registers.define("rs_split", 8, 1)
    switch.registers.define("rs_lat_sum", 64, 2)
    switch.registers.define("rs_lat_cnt", 32, 2)
    dataplane = P4AuthDataplane(switch, k_seed=0x5EED).install()
    dataplane.map_all_registers()
    return dataplane


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "p4auth_generated.p4"
    source = generate_p4(build_dataplane(), program_name="p4auth_routescout")
    with open(output, "w") as handle:
        handle.write(source)
    print(f"Wrote {output}: {len(source.splitlines())} lines "
          f"({loc_estimate(source)} LoC — the paper's prototype is ~400).")
    print("\nFirst lines:")
    for line in source.splitlines()[:14]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
