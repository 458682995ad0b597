"""Sequence-number wraparound (§VIII replay-defense corner case).

The paper: "A corner possibility for the attacker to succeed is if the
sequence number wraps around to the same value as in the recorded
message.  This can be further mitigated by allocating more bits ... and
changing the local and port keys within the wrap-around time so the
replayed message's digest becomes invalid."

These tests pin the implemented behavior at the 32-bit boundary and
demonstrate exactly the paper's mitigation: a key rollover before the
wrap invalidates recorded messages outright.
"""

from repro.core.constants import P4AUTH
from repro.core.digest import DigestEngine
from repro.core.messages import build_reg_write_request
from repro.runtime.batch import BatchController
from tests.conftest import Deployment

SEQ_MAX = 0xFFFFFFFF


def signed_write(dep, seq, value):
    switch = dep.switch("s1")
    message = build_reg_write_request(
        switch.registers.id_of("demo"), 0, value, seq)
    message.get(P4AUTH)["keyVer"] = \
        dep.controller.keys.local_key_version("s1")
    DigestEngine().sign(dep.controller.keys.local_key("s1"), message)
    return message


def inject(dep, message):
    node = dep.net.nodes["s1"]
    dep.sim.schedule(0.0, node.receive, message.copy(), 0)
    dep.run(0.1)


def test_expected_seq_wraps_to_zero(single_switch):
    dep = single_switch
    dataplane = dep.dataplanes["s1"]
    inject(dep, signed_write(dep, SEQ_MAX, 0x1))
    # expected_seq advanced past the maximum, wrapping to 0.
    assert dataplane._expected_seq.read(0) == 0
    # A seq-0 message after the wrap is accepted (not a false replay).
    inject(dep, signed_write(dep, 0, 0x2))
    assert dep.switch("s1").registers.get("demo").read(0) == 0x2
    assert dataplane.stats.replays_detected == 0


def test_wraparound_replay_window_exists_without_rollover(single_switch):
    """The documented corner: after a wrap, an old recorded message's
    sequence number can look fresh again (still authenticated, so the
    value it re-applies is a *stale authorized* value, not arbitrary)."""
    dep = single_switch
    recorded = signed_write(dep, 5, 0xAAAA)
    inject(dep, recorded)           # applied at seq 5
    inject(dep, signed_write(dep, SEQ_MAX, 0xBBBB))  # wrap
    inject(dep, recorded)           # seq 5 >= expected 0: accepted again
    assert dep.switch("s1").registers.get("demo").read(0) == 0xAAAA


def test_one_rollover_does_not_retire_the_old_key(single_switch):
    """Two-version consistency keeps the previous key addressable for
    exactly one rollover: a message recorded under it still verifies.
    This is the §VI-C availability/security trade-off made explicit."""
    dep = single_switch
    recorded = signed_write(dep, 5, 0xAAAA)
    inject(dep, recorded)
    dep.controller.kmp.local_key_update("s1")
    dep.run(1.0)
    inject(dep, signed_write(dep, SEQ_MAX, 0xBBBB))
    inject(dep, recorded)  # old slot still holds the recorded key
    assert dep.switch("s1").registers.get("demo").read(0) == 0xAAAA


def _park_before_wrap(dep, start_seq):
    """Put both ends of the C-DP channel just shy of the 32-bit boundary
    (as if the deployment had been running for ~2^32 requests)."""
    dep.controller._seq["s1"] = start_seq
    dep.dataplanes["s1"]._expected_seq.write(0, start_seq)


class TestControllerRoundTripAcrossWrap:
    """Full controller-driven round trips straddling the wrap: every
    message must verify cleanly end to end — no replay flags, no tamper
    records, no DoS alerts — with the counter crossing 0xFFFFFFFF -> 0
    mid-burst."""

    def test_write_read_round_trips_verify_across_the_wrap(self, single_switch):
        dep = single_switch
        _park_before_wrap(dep, SEQ_MAX - 2)
        outcomes = []
        for i in range(6):  # seqs MAX-2, MAX-1, MAX, 0, 1, 2
            dep.controller.write_register(
                "s1", "demo", 0, 0x900 + i,
                lambda ok, v: outcomes.append(("write", ok, v)))
            dep.run(0.1)
        dep.controller.read_register(
            "s1", "demo", 0, lambda ok, v: outcomes.append(("read", ok, v)))
        dep.run(0.1)
        assert outcomes == [("write", True, 0x900 + i) for i in range(6)] \
            + [("read", True, 0x905)]
        # The counter actually crossed the boundary and kept agreeing.
        assert dep.controller._seq["s1"] == 4
        assert dep.dataplanes["s1"]._expected_seq.read(0) == 4
        # Nothing on either side mistook the wrap for an attack.
        assert dep.dataplanes["s1"].stats.replays_detected == 0
        assert dep.dataplanes["s1"].stats.digest_fail_cdp == 0
        assert dep.controller.tamper_events == []
        assert dep.controller.alerts == []
        assert dep.controller.stats.unsolicited_nacks == 0

    def test_pipelined_burst_across_the_wrap(self, single_switch):
        """The batched path holds several in-flight seqs at once; a burst
        whose window straddles the wrap must still complete cleanly."""
        dep = single_switch
        _park_before_wrap(dep, SEQ_MAX - 3)
        batch = BatchController(dep.controller, max_in_flight=3)
        done = []
        for i in range(8):
            batch.write_register("s1", "demo", 0, 0xA00 + i,
                                 lambda ok, v, i=i: done.append((i, ok)))
        dep.run(5.0)
        assert done == [(i, True) for i in range(8)]
        assert batch.idle
        assert dep.dataplanes["s1"].stats.replays_detected == 0
        assert dep.dataplanes["s1"].stats.digest_fail_cdp == 0
        assert not dep.controller.requests.pending


def test_two_rollovers_close_the_wraparound_window(single_switch):
    """The paper's mitigation, precisely: after the slot the recorded
    message was signed under is overwritten (the *second* rollover), the
    replay's digest is invalid regardless of sequence numbers."""
    dep = single_switch
    recorded = signed_write(dep, 5, 0xAAAA)
    inject(dep, recorded)
    for _ in range(2):
        dep.controller.kmp.local_key_update("s1")
        dep.run(1.0)
    inject(dep, signed_write(dep, SEQ_MAX, 0xBBBB))
    before = dep.dataplanes["s1"].stats.digest_fail_cdp
    inject(dep, recorded)
    assert dep.switch("s1").registers.get("demo").read(0) == 0xBBBB
    assert dep.dataplanes["s1"].stats.digest_fail_cdp == before + 1
