"""Ablation — the §XI confidentiality extension's performance cost.

Measures register R/W throughput with and without payload encryption
(encrypt-then-MAC with KDF-derived session keys).  The marginal cost is a
couple of hash-unit passes per message, so the drop should be of the same
order as P4Auth's own digest overhead.
"""

from repro.analysis import format_table
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.harness import run_sequential


def build(encrypt: bool):
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("target", 64, 16)
    dataplane = P4AuthDataplane(
        switch, k_seed=0xE2C,
        config=P4AuthConfig(encrypt_regops=encrypt)).install()
    dataplane.map_register("target")
    controller = P4AuthController(net, encrypt_regops=encrypt)
    controller.provision(dataplane)
    controller.kmp.local_key_init("s1")
    sim.run(until=0.1)
    return sim, controller


def measure():
    table = {}
    for encrypt in (False, True):
        for kind in ("read", "write"):
            sim, controller = build(encrypt)
            table[(encrypt, kind)] = run_sequential(
                sim, controller, kind, "s1", "target", duration_s=5.0)
    return table


def test_confidentiality_overhead(report):
    table = measure()
    rows = []
    for encrypt in (False, True):
        rows.append([
            "auth + encryption" if encrypt else "auth only",
            f"{table[(encrypt, 'read')].throughput_rps:.0f}",
            f"{table[(encrypt, 'write')].throughput_rps:.0f}",
        ])
    report(format_table(
        ["mode", "read (req/s)", "write (req/s)"],
        rows, title="Ablation: §XI payload encryption overhead"))

    for kind in ("read", "write"):
        plain = table[(False, kind)].throughput_rps
        encrypted = table[(True, kind)].throughput_rps
        drop = 1 - encrypted / plain
        # Small but nonzero marginal cost (same order as the digests).
        assert 0.0 <= drop < 0.05, f"{kind} drop {drop:.3f}"
