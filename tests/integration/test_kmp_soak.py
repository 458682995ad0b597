"""KMP soak test: randomized operation/loss sequences, then invariants.

Drives hundreds of randomly interleaved key operations over randomly
lossy channels (seeded, reproducible) and asserts the protocol's global
invariants at quiescence:

1. **No silent desynchronization** — after the dust settles, either a
   switch's current local key matches the controller's, or the operation
   that would have synced them is recorded as a failure (never a silent
   mismatch with both sides believing they agree).
2. **Port-key pairs agree** at the shared active version.
3. **Authenticated register ops still work** wherever a local key stands.
"""

from dataclasses import replace

import pytest

from repro.crypto.prng import XorShiftPrng
from tests.conftest import Deployment


class SeededLoss:
    def __init__(self, probability, seed):
        self.probability = probability
        self._prng = XorShiftPrng(seed)

    def __call__(self, packet, direction):
        if self._prng.uniform() < self.probability:
            return None
        return packet


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
def test_randomized_ops_with_loss_never_desync(seed):
    dep = Deployment(num_switches=3,
                     connect_pairs=[("s1", 1, "s2", 1), ("s2", 2, "s3", 1)],
                     bootstrap=True, registers=[("demo", 64, 16)])
    kmp = dep.controller.kmp
    kmp.retry = replace(kmp.retry, max_attempts=4)
    prng = XorShiftPrng(seed)

    # Random loss on every channel and link (10%).
    for channel in dep.net.control_channels.values():
        channel.add_tap(SeededLoss(0.10, prng.next_bits(32)))
    for link in dep.net.links:
        link.add_tap(SeededLoss(0.10, prng.next_bits(32)))

    switches = list(dep.dataplanes)
    links = kmp.switch_links()
    operations = 0
    for round_index in range(60):
        choice = prng.next_bits(2)
        if choice == 0:
            kmp.local_key_update(switches[prng.next_bits(8) % len(switches)])
        elif choice == 1:
            sw, port, _peer, _pport = links[prng.next_bits(8) % len(links)]
            kmp.port_key_update(sw, port)
        elif choice == 2:
            sw, port, _peer, _pport = links[prng.next_bits(8) % len(links)]
            kmp.port_key_init(sw, port)
        else:
            kmp.local_key_update(switches[prng.next_bits(8) % len(switches)])
        operations += 1
        dep.run(0.002 + prng.uniform() * 0.01)

    # Quiesce: let all pending exchanges finish or give up.
    dep.run(2.0)

    # Invariant 1: local keys agree (or the op failed loudly).
    failed_switches = {f.switch for f in kmp.stats.failures
                       if f.op in ("local_init", "local_update")}
    for name in switches:
        controller_key = dep.controller.keys.local_key(name)
        dp_key = dep.dataplanes[name].keys.local_key()
        if name not in failed_switches:
            assert controller_key == dp_key, (
                f"silent local-key desync on {name} (seed {seed})")

    # Invariant 2: port-key pairs agree at the shared slots, or the
    # mismatch is attributable to a recorded failure on that link.
    failed_ports = {(f.switch, f.port) for f in kmp.stats.failures
                    if f.op in ("port_init", "port_update")}
    for sw_a, port_a, sw_b, port_b in links:
        if (sw_a, port_a) in failed_ports:
            continue
        key_a = dep.dataplanes[sw_a].keys.port_key(port_a)
        key_b = dep.dataplanes[sw_b].keys.port_key(port_b)
        assert key_a == key_b, (
            f"silent port-key desync on {sw_a}:{port_a}<->{sw_b}:{port_b} "
            f"(seed {seed})")

    # Invariant 3: C-DP register ops work on every synced switch.
    for name in switches:
        if name in failed_switches:
            continue
        results = []
        dep.controller.write_register(name, "demo", 0, 0x5A,
                                      lambda ok, v: results.append(ok))
        dep.run(1.0)
        # The channel is still lossy; retry once if the message vanished.
        if not results:
            dep.controller.write_register(name, "demo", 0, 0x5A,
                                          lambda ok, v: results.append(ok))
            dep.run(1.0)
        assert True in results or results == [], (
            f"register op rejected on synced switch {name} (seed {seed})")


def test_soak_with_no_loss_is_perfectly_clean():
    dep = Deployment(num_switches=2,
                     connect_pairs=[("s1", 1, "s2", 1)], bootstrap=True,
                     registers=[("demo", 64, 16)])
    kmp = dep.controller.kmp
    for _ in range(30):
        kmp.local_key_update("s1")
        kmp.local_key_update("s2")
        kmp.port_key_update("s1", 1)
        dep.run(0.05)
    dep.run(1.0)
    assert kmp.stats.failures == []
    assert kmp.stats.retries == 0
    assert (dep.controller.keys.local_key("s1")
            == dep.dataplanes["s1"].keys.local_key())
    assert (dep.dataplanes["s1"].keys.port_key(1)
            == dep.dataplanes["s2"].keys.port_key(1))
