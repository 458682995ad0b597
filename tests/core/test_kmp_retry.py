"""KMP failure recovery: retries under lossy and hostile channels."""

from dataclasses import replace

import pytest

from repro.attacks.base import MessageDropper
from repro.core.constants import P4AUTH
from repro.crypto.prng import XorShiftPrng
from tests.conftest import Deployment


class LossyTap:
    """Drops each message with a fixed probability (deterministic PRNG)."""

    def __init__(self, probability: float, seed: int = 77):
        self.probability = probability
        self._prng = XorShiftPrng(seed)
        self.dropped = 0

    def __call__(self, packet, direction):
        if self._prng.uniform() < self.probability:
            self.dropped += 1
            return None
        return packet


def test_local_init_survives_lossy_channel():
    dep = Deployment(num_switches=1, bootstrap=False)
    # 30% loss kills ~3/4 of 4-message attempts; allow enough retries
    # that the run converges (deterministic PRNG seed).
    kmp = dep.controller.kmp
    kmp.retry = replace(kmp.retry, max_attempts=10)
    tap = LossyTap(0.3, seed=5)
    dep.net.control_channels["s1"].add_tap(tap)
    records = []
    dep.controller.kmp.local_key_init("s1", on_done=records.append)
    dep.run(2.0)
    assert tap.dropped > 0 or records  # the tap had a chance to interfere
    assert records, "exchange never completed despite retries"
    assert (dep.controller.keys.local_key("s1")
            == dep.dataplanes["s1"].keys.local_key())


def test_retries_counted():
    dep = Deployment(num_switches=1, bootstrap=False)
    # Drop exactly the first EAK message, then go clean.
    state = {"dropped": False}

    def drop_first(packet, direction):
        if not state["dropped"] and packet.has(P4AUTH):
            state["dropped"] = True
            return None
        return packet

    dep.net.control_channels["s1"].add_tap(drop_first)
    dep.controller.kmp.local_key_init("s1")
    dep.run(1.0)
    assert dep.controller.kmp.stats.retries == 1
    assert dep.controller.keys.has_local_key("s1")


def test_gives_up_after_max_attempts():
    dep = Deployment(num_switches=1, bootstrap=False)
    dropper = MessageDropper(lambda p: p.has(P4AUTH))
    dropper.attach(dep.net.control_channels["s1"])
    dep.controller.kmp.local_key_init("s1")
    dep.run(2.0)
    failures = dep.controller.kmp.stats.failures
    assert len(failures) == 1
    assert failures[0].op == "local_init"
    assert failures[0].attempts == dep.controller.kmp.retry.max_attempts
    assert not dep.controller.keys.has_local_key("s1")


def test_port_init_retries_on_loss():
    dep = Deployment(num_switches=2, bootstrap=False)
    dep.net.connect("s1", 1, "s2", 1)
    # Clean local inits first.
    dep.controller.kmp.local_key_init("s1")
    dep.controller.kmp.local_key_init("s2")
    dep.run(1.0)
    # Now drop the first redirected ADHKD leg toward s2.
    state = {"dropped": False}

    def drop_first(packet, direction):
        if (not state["dropped"] and direction == "c->dp"
                and packet.has("adhkd")):
            state["dropped"] = True
            return None
        return packet

    dep.net.control_channels["s2"].add_tap(drop_first)
    records = []
    dep.controller.kmp.port_key_init("s1", 1, on_done=records.append)
    dep.run(2.0)
    assert records
    assert (dep.dataplanes["s1"].keys.port_key(1)
            == dep.dataplanes["s2"].keys.port_key(1) != 0)
    assert dep.controller.kmp.stats.retries >= 1


def test_port_update_gives_up_on_dead_link():
    dep = Deployment(num_switches=2,
                     connect_pairs=[("s1", 1, "s2", 1)])
    old_key = dep.dataplanes["s1"].keys.port_key(1)
    link = dep.net.link_between("s1", "s2")
    dropper = MessageDropper(lambda p: p.has("adhkd"))
    dropper.attach(link)
    dep.controller.kmp.port_key_update("s1", 1)
    dep.run(2.0)
    failures = [f for f in dep.controller.kmp.stats.failures
                if f.op == "port_update"]
    assert failures
    # The endpoints never desynchronize: both still hold a usable key.
    assert (dep.dataplanes["s1"].keys.port_key(1, 0),
            dep.dataplanes["s1"].keys.port_key(1, 1)).count(old_key) >= 1


def test_successful_exchange_triggers_no_retry(single_switch):
    # Bootstrap already ran in the fixture; quiesce and assert cleanliness.
    single_switch.run(1.0)
    assert single_switch.controller.kmp.stats.retries == 0
    assert single_switch.controller.kmp.stats.failures == []


class TestDeadPeer:
    """Regression: a dead peer must not spin the event loop (ISSUE 2)."""

    def test_dead_peer_abandons_within_a_tiny_event_budget(self):
        dep = Deployment(num_switches=1, bootstrap=False)
        dep.net.nodes["s1"].up = False  # crashed before key exchange
        records = []
        dep.controller.kmp.local_key_init("s1", on_done=records.append)
        dep.sim.run(until=10.0, max_events=5_000)
        # Bounded retries: the exchange is abandoned, not retried forever.
        assert dep.sim.budget_exhaustions == 0
        assert [f.op for f in records] == ["local_init"]
        assert dep.controller.kmp.stats.failures == records
        # The loop actually drained: nothing left pending anywhere.
        assert dep.sim.pending() == 0
        assert not dep.controller.kmp._by_seq

    def test_dead_peer_leaves_the_loop_idle_afterwards(self):
        dep = Deployment(num_switches=1, bootstrap=False)
        dep.net.nodes["s1"].up = False
        dep.controller.kmp.local_key_init("s1")
        dep.sim.run(until=10.0)
        executed_after_abandon = dep.sim.run(until=100.0)
        assert executed_after_abandon == 0  # no self-rescheduling spin

    def test_bootstrap_all_resolves_despite_a_dead_switch(self):
        dep = Deployment(num_switches=2, bootstrap=False,
                         connect_pairs=[("s1", 1, "s2", 1)])
        dep.net.nodes["s2"].up = False
        done = []
        dep.controller.kmp.bootstrap_all(on_done=lambda: done.append(
            dep.sim.now))
        dep.sim.run(until=10.0, max_events=50_000)
        # The barrier tolerates the failure instead of hanging forever.
        assert done, "bootstrap_all never resolved with a dead switch"
        assert dep.controller.keys.has_local_key("s1")
        assert not dep.controller.keys.has_local_key("s2")
        # Port keying over the half-dead link was skipped, not leaked.
        assert not dep.controller.kmp._by_seq
        assert not dep.controller.kmp._by_port
        failures = {f.switch for f in dep.controller.kmp.stats.failures}
        assert failures == {"s2"}


class TestBackoffCeiling:
    """``retry.delay`` must never exceed ``cap_s`` (the documented hard
    ceiling), even after jitter is applied.  The historical bug applied
    jitter *after* capping, overshooting the ceiling by up to ``jitter``
    on late attempts."""

    def test_jittered_delay_respects_max_backoff(self):
        dep = Deployment(num_switches=1, bootstrap=False)
        retry = dep.controller.kmp.retry
        for attempt in range(1, 40):
            delay = retry.delay(attempt)
            assert delay <= retry.cap_s, (
                f"attempt {attempt}: delay {delay} exceeds the "
                f"cap_s ceiling {retry.cap_s}")

    def test_uncapped_attempts_still_grow_and_jitter(self):
        dep = Deployment(num_switches=1, bootstrap=False)
        retry = dep.controller.kmp.retry
        # Attempt 1 is the bare base timeout (no jitter, no PRNG draw).
        assert retry.delay(1) == retry.base_delay_s
        # Attempt 2 grows exponentially and adds positive jitter, but
        # stays below the ceiling when the base delay leaves headroom.
        delay2 = retry.delay(2)
        base2 = retry.base_delay_s * retry.factor
        assert base2 <= delay2 <= base2 * (1.0 + retry.jitter)

    def test_ceiling_holds_at_the_cap_boundary(self):
        """Once the exponential schedule reaches the cap, jitter has no
        headroom at all: the delay is exactly ``cap_s``."""
        dep = Deployment(num_switches=1, bootstrap=False)
        retry = dep.controller.kmp.retry
        # With the defaults (0.02 * 2^(n-1), cap 0.25) attempt 5 onward
        # saturates the ceiling.
        for attempt in (5, 8, 13, 21):
            assert retry.delay(attempt) == retry.cap_s
