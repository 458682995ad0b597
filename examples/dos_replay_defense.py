#!/usr/bin/env python3
"""The §VIII defenses: replay rejection, digest brute force, DoS limits.

Three short demonstrations against a single protected switch:
1. a recorded writeReq is replayed bit-for-bit — valid digest, stale
   sequence number — and rejected;
2. a digest brute-forcer sends hundreds of guesses — every one fails and
   every one is visible to the controller;
3. a request flood triggers the data plane's alert rate limit, keeping
   the DP->C channel from being jammed.

Run:  python examples/dos_replay_defense.py
"""

from repro.attacks.bruteforce import DigestBruteForcer
from repro.attacks.control_plane import DosFlooder, ReplayAttacker
from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator


def build():
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("state", 64, 8)
    dataplane = P4AuthDataplane(switch, k_seed=0xD05).install()
    dataplane.map_register("state")
    controller = P4AuthController(net)
    controller.provision(dataplane)
    controller.kmp.local_key_init("s1")
    sim.run(until=0.1)
    return sim, net, switch, dataplane, controller


def main() -> None:
    sim, net, switch, dataplane, controller = build()

    # --- 1. replay ---------------------------------------------------------
    recorder = ReplayAttacker(lambda p: p.has("reg_op"))
    recorder.attach(net.control_channels["s1"])
    controller.write_register("s1", "state", 0, 0xAAAA)
    sim.run(until=0.5)
    controller.write_register("s1", "state", 0, 0xBBBB)
    sim.run(until=1.0)
    recorder.replay(net, "s1", count=1)  # replay the 0xAAAA write
    sim.run(until=1.5)
    value = switch.registers.get("state").read(0)
    print(f"[replay] register after replaying the old write: {value:#x} "
          f"(still the newest value)")
    print(f"[replay] replays detected by the DP: "
          f"{dataplane.stats.replays_detected}")

    # --- 2. digest brute force ---------------------------------------------
    dataplane.config.alert_threshold = None  # count every guess
    attacker = DigestBruteForcer(net, "s1",
                                 switch.registers.id_of("state"),
                                 index=1, value=0x666)
    attacker.attempt(guesses=300)
    sim.run(until=2.0)
    print(f"\n[brute]  guesses sent: {attacker.attempts}, "
          f"state written: {switch.registers.get('state').read(1):#x}")
    print(f"[brute]  every guess visible at the controller "
          f"(unsolicited nAcks: {controller.stats.unsolicited_nacks})")
    print(f"[brute]  expected guesses for a 32-bit digest: "
          f"{DigestBruteForcer.expected_trials():,}")

    # --- 3. DoS flood vs the alert rate limit -------------------------------
    dataplane.config.alert_threshold = 50
    dataplane.config.alert_window_s = 1.0
    flooder = DosFlooder(net, "s1", switch.registers.id_of("state"),
                         rate_hz=2000.0)
    flooder.start(duration_s=1.0)
    sim.run(until=4.0)
    stats = dataplane.stats
    print(f"\n[dos]    forged requests: {flooder.sent}")
    print(f"[dos]    alerts passed to controller: {stats.alerts_raised}, "
          f"suppressed by rate limit: {stats.alerts_suppressed}")
    assert stats.alerts_suppressed > 0


if __name__ == "__main__":
    main()
