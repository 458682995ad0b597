#!/usr/bin/env python3
"""P4Auth-protected HULA on a leaf-spine fabric.

The paper's Fig 3 topology is minimal; this example shows the same
protection generalizing to a 4-leaf / 2-spine fabric: every leaf floods
probes for its own ToR id, every fabric link gets a port key from the
KMP, a MitM on one leaf-spine link tries to attract traffic, and the
first honest switch drops the tampered probes.

Run:  python examples/leaf_spine_hula.py
"""

from repro.attacks.link import ProbeFieldTamperer
from repro.core.auth_dataplane import P4AuthDataplane, P4AuthConfig
from repro.core.controller import P4AuthController
from repro.net.topology import leaf_spine
from repro.systems.hula import (
    HulaDataplane,
    leaf_spine_hula_configs,
    make_data_packet,
    make_probe,
)

NUM_LEAVES, NUM_SPINES = 4, 2
DURATION_S = 3.0


def main() -> None:
    net, extras = leaf_spine(NUM_LEAVES, NUM_SPINES)
    sim = extras["sim"]
    configs = leaf_spine_hula_configs(NUM_LEAVES, NUM_SPINES)
    hulas = {name: HulaDataplane(net.switch(name), config).install()
             for name, config in configs.items()}

    dataplanes = {}
    for index, name in enumerate(sorted(configs)):
        dataplanes[name] = P4AuthDataplane(
            net.switch(name), k_seed=0x1EAF + index,
            config=P4AuthConfig(protected_headers={"hula_probe"}),
        ).install()
    controller = P4AuthController(net)
    for dataplane in dataplanes.values():
        controller.provision(dataplane)
    controller.kmp.bootstrap_all(
        on_done=lambda: print(f"[kmp] fabric keyed: "
                              f"{len(controller.kmp.stats.records)} key "
                              f"operations, done at t={sim.now * 1e3:.1f} ms"))
    sim.run(until=1.0)

    # The adversary taps the leaf2-spine1 link and rewrites the
    # utilization field of every probe crossing it.  With P4Auth each
    # rewritten probe fails digest verification at the next switch, so
    # leaf1 only ever learns about leaf2 through spine2.
    adversary = ProbeFieldTamperer("hula_probe", "path_util",
                                   lambda util: (util + 7) % 101)
    adversary.attach(net.link_between("leaf2", "spine1"))

    # Every leaf floods probes for its ToR id; leaf1's host sends data
    # toward leaf2's host.
    def probes(round_index: int = 0) -> None:
        if sim.now >= DURATION_S + 1.0:
            return
        for leaf_index in range(1, NUM_LEAVES + 1):
            extras["hosts"][f"leaf{leaf_index}"].send(
                make_probe(leaf_index, round_index))
        sim.schedule(0.005, probes, round_index + 1)

    def data(seq: int = 0) -> None:
        if sim.now >= DURATION_S + 1.0:
            return
        extras["hosts"]["leaf1"].send(make_data_packet(2, flow_id=seq,
                                                       seq=seq & 0xFFFF))
        sim.schedule(0.0005, data, seq + 1)

    sim.schedule(0.0, probes)
    sim.schedule(0.05, data)
    sim.run(until=DURATION_S + 1.0)

    leaf1 = hulas["leaf1"]
    total = sum(count for port, count in leaf1.data_tx_per_port.items())
    print(f"\n[hula] leaf1 forwarded {total} data packets toward leaf2:")
    for spine_index in range(1, NUM_SPINES + 1):
        port = 1 + spine_index
        share = leaf1.data_tx_per_port.get(port, 0) / max(1, total)
        print(f"[hula]   via spine{spine_index}: {share * 100:5.1f}%")
    delivered = len(extras["hosts"]["leaf2"].received)
    drops = sum(dp.stats.digest_fail_dpdp for dp in dataplanes.values())
    alerts = len(controller.alerts)
    print(f"[hula] delivered at leaf2's host: {delivered}")
    print(f"[p4auth] tampered probes dropped: {drops}, alerts: {alerts}")
    share_spine2 = leaf1.data_tx_per_port.get(3, 0) / max(1, total)
    assert share_spine2 > 0.9, "traffic should avoid the tampered path"
    assert alerts > 0 and drops > 0


if __name__ == "__main__":
    main()
