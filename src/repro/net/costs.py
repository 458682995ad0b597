"""Calibrated timing constants for the simulation.

The paper reports wall-clock measurements from a Tofino testbed and BMv2;
we reproduce the *shapes* of those measurements with the constants below.
Every constant's calibration rationale is documented here and in DESIGN.md;
the benchmark suite asserts the resulting shapes (who wins, rough factors,
crossovers), not absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """All timing constants, in seconds.

    Attributes
    ----------
    cdp_one_way_s:
        Controller-to-data-plane one-way latency (PCIe/gRPC transport plus
        kernel path).  350 µs makes a 4-message local key init land at
        ~1.5 ms and a 5-message port key init at ~1.9 ms, matching Fig 20's
        1-2 ms band and ordering.
    switch_fwd_s:
        Per-switch forwarding cost (BMv2 software switch scale, ~50 µs).
    link_latency_s:
        Per-link propagation delay between adjacent switches.
    host_fixed_s:
        Fixed end-host stack cost charged once per probe/flow send.  Large
        relative to per-hop costs, which is what makes Fig 21's relative
        P4Auth overhead grow near-linearly in hop count.
    digest_op_s:
        One data-plane digest computation or verification.  4.4 µs makes
        the HULA probe overhead +0.97% at 2 hops and +5.9% at 10 hops
        (paper: 0.95% and 5.9%).
    controller_digest_s:
        One controller-side (Python) digest computation or verification.
    compose_read_s / compose_write_s:
        Controller-side request marshaling.  Write composes both the index
        and the data, which is the paper's explanation for P4Runtime's
        read throughput being 1.7x its write throughput.
    p4runtime_overhead_s:
        Extra per-request cost of the gRPC + P4Runtime server stack,
        absent from the PacketOut-based stacks.
    controller_proc_s:
        Generic controller event-handling cost (parse, dispatch).
    """

    cdp_one_way_s: float = 350e-6
    switch_fwd_s: float = 50e-6
    link_latency_s: float = 5e-6
    host_fixed_s: float = 790e-6
    digest_op_s: float = 4.4e-6
    controller_digest_s: float = 15e-6
    compose_read_s: float = 120e-6
    compose_write_s: float = 792e-6
    p4runtime_overhead_s: float = 60e-6
    controller_proc_s: float = 30e-6
    #: Relative uniform jitter applied to C-DP transit and switch
    #: processing (0 = fully deterministic).  With jitter the Fig 18 RCT
    #: measurement becomes a distribution, like the paper's CDF.
    jitter_fraction: float = 0.0
