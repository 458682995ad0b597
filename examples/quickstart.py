#!/usr/bin/env python3
"""Quickstart: protect a switch's registers with P4Auth in ~60 lines.

Builds one switch with an application register, provisions a P4Auth
controller, establishes keys with the in-network key management protocol,
performs authenticated register reads/writes, and then shows what happens
when a compromised switch OS tampers with the messages.

Run:  python examples/quickstart.py
"""

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator


def main() -> None:
    # --- build the network: one switch, one controller -------------------
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=4)
    net.add_switch(switch)

    # An application register (e.g., a traffic-split ratio).
    switch.registers.define("split_ratio", 64, 4)

    # Install P4Auth in the data plane.  K_seed models the pre-shared
    # secret baked into the P4 binary at compile time.
    dataplane = P4AuthDataplane(switch, k_seed=0x5EED_C0DE).install()
    dataplane.map_register("split_ratio")

    controller = P4AuthController(net)
    controller.provision(dataplane)

    # --- establish keys (EAK + ADHKD, all in-band) ------------------------
    controller.kmp.local_key_init(
        "s1", on_done=lambda rec: print(
            f"[kmp] local key established in {rec.rtt_s * 1e3:.2f} ms "
            f"({rec.messages} messages, {rec.bytes} bytes)"
            if rec.ok else f"[kmp] local key NOT established: {rec}"))
    sim.run(until=0.1)

    # --- authenticated register operations ---------------------------------
    controller.write_register(
        "s1", "split_ratio", 0, 70,
        lambda ok, value: print(f"[c-dp] write acknowledged: ok={ok}"))
    sim.run(until=0.2)
    controller.read_register(
        "s1", "split_ratio", 0,
        lambda ok, value: print(f"[c-dp] read back value: {value}"))
    sim.run(until=0.3)

    # --- now a MitM at the switch OS tampers with a write ------------------
    def tamper(packet, direction):
        if direction == "c->dp" and packet.has("reg_op"):
            packet.get("reg_op")["value"] = 5  # attacker's value
        return packet

    net.control_channels["s1"].add_tap(tamper)
    controller.write_register(
        "s1", "split_ratio", 0, 80,
        lambda ok, value: print(f"[c-dp] tampered write result: ok={ok} "
                                "(nAcked, not applied)"))
    sim.run(until=0.4)

    actual = switch.registers.get("split_ratio").read(0)
    print(f"[dp]   register value in the data plane: {actual} "
          "(attacker's 5 was rejected)")
    print(f"[dp]   digest failures detected: "
          f"{dataplane.stats.digest_fail_cdp}")
    assert actual == 70


if __name__ == "__main__":
    main()
