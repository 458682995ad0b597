"""One conformance battery for the three register-access stacks.

P4Runtime, DP-Reg-RW and P4Auth own the same request lifecycle
(:mod:`repro.core.requests`), so the contract around the wire is
written once here (:class:`StackConformance`) and run against each
stack by a subclass that only knows how to deploy it and what is
particular to it: P4Runtime sees losses itself instead of arming a
response timer, and P4Auth must re-sign (and re-encrypt) every resend
under a fresh sequence number or the switch's replay window would
reject the retry itself.

The default everywhere is fire-and-wait (a lost request vanishes
silently); opting into ``request_timeout_s`` turns loss into bounded
retries with a terminal ``callback(False, 0)``.
"""

import math

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.constants import P4AUTH, REG_OP
from repro.core.controller import P4AuthController
from repro.core.requests import RetryPolicy
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.p4runtime import P4RuntimeStack
from repro.runtime.plain import PlainController, PlainRegOpDataplane


def one_switch():
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("target", 64, 16)
    return sim, net, switch


def plain_deployment(**controller_kwargs):
    sim, net, switch = one_switch()
    PlainRegOpDataplane(switch).install().map_register("target")
    controller = PlainController(net, **controller_kwargs)
    controller.provision(switch)
    return sim, net, controller


def p4runtime_deployment(**stack_kwargs):
    sim, net, switch = one_switch()
    stack = P4RuntimeStack(net, **stack_kwargs)
    stack.provision(switch)
    return sim, net, stack


def p4auth_deployment(encrypt_regops=False, **controller_kwargs):
    sim, net, switch = one_switch()
    dataplane = P4AuthDataplane(
        switch, k_seed=0x42,
        config=P4AuthConfig(encrypt_regops=encrypt_regops)).install()
    dataplane.map_register("target")
    controller = P4AuthController(net, encrypt_regops=encrypt_regops,
                                  **controller_kwargs)
    controller.provision(dataplane)
    controller.kmp.local_key_init("s1")
    sim.run(until=0.1)
    assert controller.keys.has_local_key("s1")
    return sim, net, controller


def request_seq(packet):
    """The sequence number a register-op message carries, on any stack."""
    return packet.get(P4AUTH if packet.has(P4AUTH) else "ctl")["seqNum"]


def drop_requests(net, count=None):
    """Tap the control channel: eat up to ``count`` c->dp requests.

    Returns the tap's state; ``state["seqs"]`` lists the sequence number
    of every request that reached the tap, eaten or not.
    """
    state = {"eaten": 0, "seqs": []}

    def tap(packet, direction):
        if direction != "c->dp" or not packet.has(REG_OP):
            return packet
        state["seqs"].append(request_seq(packet))
        if count is not None and state["eaten"] >= count:
            return packet
        state["eaten"] += 1
        return None

    net.control_channels["s1"].add_tap(tap)
    return state


def record_wire(sim, net):
    """Every register-op message either way, with its virtual time."""
    wire = []

    def tap(packet, direction):
        if packet.has(REG_OP):
            wire.append((sim.now, direction, packet.serialize()))
        return packet

    net.control_channels["s1"].add_tap(tap)
    return wire


class StackConformance:
    """The request-lifecycle contract; subclasses bind one stack."""

    #: ``deploy(**stack_kwargs) -> (sim, net, stack)``
    deploy = None
    #: Response timers armed per request under ``request_timeout_s``.
    armed_timers = 1
    #: Requests still outstanding after a silent fire-and-wait loss.
    outstanding_after_silent_loss = 1

    @staticmethod
    def counters(stack):
        """Where the stack keeps ``request_retries``/``requests_abandoned``."""
        return getattr(stack, "stats", stack)

    def test_lost_request_abandoned_terminally(self):
        sim, net, stack = self.deploy(request_timeout_s=0.01)
        eaten = drop_requests(net)
        outcomes = []
        stack.write_register("s1", "target", 0, 0x42,
                             lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [(False, 0)]  # exactly once
        assert self.counters(stack).request_retries == 2
        assert self.counters(stack).requests_abandoned == 1
        assert stack.outstanding_count() == 0
        # Each resend went out under a fresh sequence number.
        assert len(eaten["seqs"]) == 3 and len(set(eaten["seqs"])) == 3

    def test_retry_recovers_from_a_single_loss(self):
        sim, net, stack = self.deploy(request_timeout_s=0.01)
        drop_requests(net, count=1)
        outcomes = []
        stack.write_register("s1", "target", 3, 0x77,
                             lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [(True, 0x77)]
        assert self.counters(stack).request_retries == 1
        assert self.counters(stack).requests_abandoned == 0
        assert net.switch("s1").registers.get("target").read(3) == 0x77

    def test_read_retry_path(self):
        sim, net, stack = self.deploy(request_timeout_s=0.01)
        net.switch("s1").registers.get("target").write(4, 0x1234)
        drop_requests(net, count=1)
        outcomes = []
        stack.read_register("s1", "target", 4,
                            lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [(True, 0x1234)]
        assert self.counters(stack).request_retries == 1

    def test_success_cancels_the_timeout(self):
        sim, net, stack = self.deploy(request_timeout_s=0.01)
        cancelled_before = sim.events_cancelled
        outcomes = []
        stack.write_register("s1", "target", 0, 0x11,
                             lambda ok, v: outcomes.append(ok))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [True]  # no spurious late failure callback
        assert self.counters(stack).request_retries == 0
        # The armed timeout (where the stack arms one) was withdrawn.
        assert sim.events_cancelled - cancelled_before == self.armed_timers

    def test_legacy_default_stays_silent(self):
        sim, net, stack = self.deploy()  # request_timeout_s=None
        drop_requests(net)
        outcomes = []
        stack.write_register("s1", "target", 0, 0x42,
                             lambda ok, v: outcomes.append(ok))
        sim.run(until=sim.now + 2.0)
        assert outcomes == []  # the old contract: loss means no callback
        assert self.counters(stack).requests_abandoned == 0
        assert stack.outstanding_count() == self.outstanding_after_silent_loss

    def test_read_issued_after_a_write_never_departs_first(self):
        """A read is ~6x cheaper to compose than a write; without the
        per-switch FIFO horizon it would overtake a write issued just
        before it and observe (or, on P4Auth, replay-fence) stale state."""
        sim, net, stack = self.deploy()
        seen = drop_requests(net, count=0)
        results = []
        first = stack.write_register(
            "s1", "target", 5, 0xFEED,
            lambda ok, v: results.append(("w", ok, v)))
        second = stack.read_register(
            "s1", "target", 5, lambda ok, v: results.append(("r", ok, v)))
        sim.run(until=sim.now + 2.0)
        assert seen["seqs"] == [first, second]
        assert results == [("w", True, 0xFEED), ("r", True, 0xFEED)]

    def test_request_many_equals_back_to_back_singles(self):
        ops = [("write", 1, 0xA1), ("read", 1, 0), ("write", 2, 0xB2),
               ("read", 2, 0)]

        def completions(sim, log):
            return lambda ok, value: log.append((sim.now, ok, value))

        sim_a, net_a, stack_a = self.deploy()
        wire_a = record_wire(sim_a, net_a)
        done_a = []
        seqs_a = stack_a.request_many("s1", [
            (kind, "target", index, value, completions(sim_a, done_a))
            for kind, index, value in ops])
        sim_a.run(until=sim_a.now + 2.0)

        sim_b, net_b, stack_b = self.deploy()
        wire_b = record_wire(sim_b, net_b)
        done_b = []
        seqs_b = [
            stack_b.read_register("s1", "target", index,
                                  completions(sim_b, done_b))
            if kind == "read"
            else stack_b.write_register("s1", "target", index, value,
                                        completions(sim_b, done_b))
            for kind, index, value in ops]
        sim_b.run(until=sim_b.now + 2.0)

        assert seqs_a == seqs_b
        assert len(wire_a) == 2 * len(ops)
        assert wire_a == wire_b
        assert len(done_a) == len(ops)
        assert done_a == done_b
        assert stack_a.outstanding_count() == 0


class TestPlainStackRetry(StackConformance):
    deploy = staticmethod(plain_deployment)

    def test_sequence_wraps_to_zero(self):
        sim, net, controller = plain_deployment()
        controller._seq["s1"] = 0xFFFFFFFF
        seen = drop_requests(net, count=0)
        outcomes = []
        seqs = [controller.write_register(
                    "s1", "target", i, 0x10 + i,
                    lambda ok, v: outcomes.append((ok, v)))
                for i in range(2)]
        sim.run(until=2.0)
        assert seqs == seen["seqs"] == [0xFFFFFFFF, 0]
        assert outcomes == [(True, 0x10), (True, 0x11)]
        assert controller._seq["s1"] == 1


class TestP4RuntimeStackRetry(StackConformance):
    deploy = staticmethod(p4runtime_deployment)
    # An OS-level drop is seen where it happens: no response timer, and
    # a silently lost request is not left outstanding.
    armed_timers = 0
    outstanding_after_silent_loss = 0

    def test_response_leg_loss_also_retried(self):
        sim, net, stack = p4runtime_deployment(request_timeout_s=0.01)
        state = {"eaten": 0}

        def tap(packet, direction):
            if direction == "dp->c" and state["eaten"] < 1:
                state["eaten"] += 1
                return None
            return packet

        net.control_channels["s1"].add_tap(tap)
        outcomes = []
        stack.write_register("s1", "target", 5, 0x99,
                             lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=2.0)
        assert outcomes == [(True, 0x99)]
        assert stack.request_retries == 1


class TestP4AuthStackRetry(StackConformance):
    deploy = staticmethod(p4auth_deployment)

    def test_retried_write_reencrypts_under_the_fresh_seq(self):
        sim, net, controller = p4auth_deployment(encrypt_regops=True,
                                                 request_timeout_s=0.05)
        sent = []

        def eat_first(packet, direction):
            if direction == "c->dp" and packet.has(REG_OP):
                sent.append((packet.get(P4AUTH)["seqNum"],
                             packet.get(REG_OP)["value"]))
                if len(sent) == 1:
                    return None
            return packet

        net.control_channels["s1"].add_tap(eat_first)
        outcomes = []
        controller.write_register("s1", "target", 2, 0xBEEF,
                                  lambda ok, v: outcomes.append(ok))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [True]
        assert controller.stats.request_retries == 1
        (seq1, cipher1), (seq2, cipher2) = sent
        assert seq1 != seq2
        # Ciphertext both times, bound to the seq it travelled under —
        # the retry re-encrypted the original plaintext, not the
        # first attempt's ciphertext.
        assert 0xBEEF not in (cipher1, cipher2) and cipher1 != cipher2
        assert net.switch("s1").registers.get("target").read(2) == 0xBEEF


class TestRetryPolicy:
    """The backoff arithmetic every retry in the repo shares."""

    KMP = dict(base_delay_s=0.02, max_attempts=3, factor=2.0, cap_s=0.25,
               jitter=0.1, seed=0x5EED)

    def test_flat_policy_is_the_base_delay_exactly(self):
        policy = RetryPolicy(0.05, 3)
        assert [policy.delay(n) for n in (1, 2, 3, 9)] == [0.05] * 4

    def test_exhausted_at_max_attempts(self):
        policy = RetryPolicy(0.05, 3)
        assert [policy.exhausted(n) for n in (1, 2, 3, 4)] == \
            [False, False, True, True]

    def test_first_attempt_draws_no_randomness(self):
        jittered = RetryPolicy(**self.KMP)
        assert jittered.delay(1) == 0.02
        # Same seed, untouched stream: attempt 2 matches a policy that
        # never computed attempt 1.
        assert jittered.delay(2) == RetryPolicy(**self.KMP).delay(2)

    def test_retries_grow_and_jitter_upwards_only(self):
        policy = RetryPolicy(**self.KMP)
        delay2 = policy.delay(2)
        assert 0.04 <= delay2 <= 0.04 * 1.1

    def test_cap_is_a_hard_ceiling_after_jitter(self):
        policy = RetryPolicy(**self.KMP)
        for attempt in range(1, 40):
            assert policy.delay(attempt) <= 0.25
        # Once the schedule saturates, jitter has no headroom at all.
        for attempt in (5, 8, 13, 21):
            assert policy.delay(attempt) == 0.25

    def test_same_seed_same_schedule(self):
        first, second = RetryPolicy(**self.KMP), RetryPolicy(**self.KMP)
        assert [first.delay(n) for n in range(1, 8)] == \
            [second.delay(n) for n in range(1, 8)]
        assert first == second  # a value object: the stream is not identity

    def test_uncapped_default(self):
        assert RetryPolicy(1.0, factor=2.0).cap_s == math.inf
        assert RetryPolicy(1.0, factor=2.0).delay(11) == 1024.0
