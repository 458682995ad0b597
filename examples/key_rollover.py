#!/usr/bin/env python3
"""Key lifecycle automation: topology events and periodic rollover.

Builds a three-switch triangle, lets the KMP bootstrap every key, then:
(1) brings up a brand-new link and watches topology automation key it;
(2) enables periodic rollover and shows authenticated traffic surviving
    continuous key changes (the two-version consistent update scheme).

Run:  python examples/key_rollover.py
"""

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator


def main() -> None:
    sim = EventSimulator()
    net = Network(sim)
    dataplanes = {}
    for index in (1, 2, 3):
        name = f"s{index}"
        switch = DataplaneSwitch(name, num_ports=4, seed=index)
        net.add_switch(switch)
        switch.registers.define("counter", 64, 4)
        dataplane = P4AuthDataplane(switch, k_seed=0x100 + index).install()
        dataplane.map_register("counter")
        dataplanes[name] = dataplane
    net.connect("s1", 1, "s2", 1)
    net.connect("s2", 2, "s3", 1)

    controller = P4AuthController(net)
    for dataplane in dataplanes.values():
        controller.provision(dataplane)
    controller.kmp.enable_topology_automation()

    controller.kmp.bootstrap_all(
        on_done=lambda: print(f"[kmp] bootstrap complete at "
                              f"t={sim.now * 1e3:.1f} ms"))
    sim.run(until=1.0)
    for record in controller.kmp.stats.records:
        print(f"[kmp]   {record.op:12s} {record.switch}"
              f"{':' + str(record.port) if record.port else '':4s} "
              f"rtt={record.rtt_s * 1e3:.2f} ms")

    # --- a new link comes up: automation keys it ---------------------------
    print("\n[topo] bringing up a new s1-s3 link ...")
    link = net.connect("s1", 2, "s3", 2)
    net.set_link_up(link, True)
    sim.run(until=2.0)
    k13 = dataplanes["s1"].keys.port_key(2)
    assert k13 == dataplanes["s3"].keys.port_key(2) != 0
    print(f"[topo] s1-s3 port key established automatically "
          f"(key fingerprint {k13 & 0xFFFF:#06x})")

    # --- periodic rollover under live traffic ------------------------------
    print("\n[roll] enabling 200 ms key rollover; issuing 40 authenticated "
          "writes meanwhile ...")
    controller.kmp.schedule_rollover(0.2)
    outcomes = []

    def write_loop(index: int = 0) -> None:
        if index >= 40:
            return
        controller.write_register("s1", "counter", 0, index,
                                  lambda ok, v: outcomes.append(ok))
        sim.schedule(0.05, write_loop, index + 1)

    write_loop()
    sim.run(until=5.0)
    controller.kmp.cancel_rollover()
    updates = (controller.kmp.stats.count("local_update")
               + controller.kmp.stats.count("port_update"))
    print(f"[roll] {updates} key updates completed during the run")
    print(f"[roll] {sum(outcomes)}/{len(outcomes)} writes verified OK "
          "(no window without a valid key)")
    assert all(outcomes) and len(outcomes) == 40


if __name__ == "__main__":
    main()
