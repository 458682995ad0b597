"""Every key operation reports exactly one outcome, through ``on_done``.

Success arrives as the :class:`KmpOpRecord` (``ok``), failure as the
:class:`KmpFailure` (not ``ok``) — there is no second, global failure
surface — and the one barrier built on that resolves exactly once
whatever mix of outcomes it sees.
"""

import pytest

from repro.core.kmp import (
    KmpFailure,
    KmpOpRecord,
    _issue_all,
    honest_load_audit,
)
from repro.experiments.cdp_batch import build_batch_deployment
from repro.runtime.comparison import bootstrap_local_keys
from tests.conftest import Deployment

OPS = {
    "local_init": lambda kmp, cb: kmp.local_key_init("s1", on_done=cb),
    "local_update": lambda kmp, cb: kmp.local_key_update("s1", on_done=cb),
    "port_init": lambda kmp, cb: kmp.port_key_init("s1", 1, on_done=cb),
    "port_update": lambda kmp, cb: kmp.port_key_update("s1", 1, on_done=cb),
}


def eat_everything(_packet, _direction):
    return None


def pair(op, registers=()):
    """s1 -- s2, keyed unless the op under test is the first key."""
    return Deployment(num_switches=2, connect_pairs=[("s1", 1, "s2", 1)],
                      bootstrap=op != "local_init", registers=registers)


def completes(dep, op):
    return True


def blackout(dep, op):
    dep.net.control_channels["s1"].add_tap(eat_everything)
    return False


def peer_vanishes(dep, op):
    """The first attempt is lost; before the retry the peer is gone: the
    far switch of a port operation leaves the topology, the switch of a
    local operation crashes."""
    if op.startswith("port"):
        dep.net.control_channels["s1"].add_tap(eat_everything)
        dep.sim.schedule(1e-4, dep.net.nodes.pop, "s2")
    else:
        dep.sim.schedule(1e-4, setattr, dep.net.nodes["s1"], "up", False)
    return False


@pytest.mark.parametrize("scenario", [completes, blackout, peer_vanishes],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("op", sorted(OPS))
def test_on_done_fires_once_with_the_outcome(op, scenario):
    dep = pair(op)
    kmp = dep.controller.kmp
    records_before = list(kmp.stats.records)
    expect_ok = scenario(dep, op)
    outcomes = []
    OPS[op](kmp, outcomes.append)
    dep.sim.run(until=dep.sim.now + 5.0, max_events=100_000)

    assert len(outcomes) == 1, f"on_done fired {len(outcomes)} times"
    outcome = outcomes[0]
    assert outcome.ok is expect_ok
    assert outcome.op == op and outcome.switch == "s1"
    if expect_ok:
        assert isinstance(outcome, KmpOpRecord)
        assert kmp.stats.records[len(records_before):] == [outcome]
        assert kmp.stats.failures == []
    else:
        assert isinstance(outcome, KmpFailure)
        assert kmp.stats.failures == [outcome]
        assert kmp.stats.records == records_before
        assert 2 <= outcome.attempts <= kmp.retry.max_attempts
    # Nothing is left routing to a finished exchange.
    assert not kmp._by_seq and not kmp._by_port
    assert dep.sim.budget_exhaustions == 0


def test_vanished_port_peer_is_abandoned_on_the_second_attempt():
    dep = pair("port_update")
    peer_vanishes(dep, "port_update")
    outcomes = []
    dep.controller.kmp.port_key_update("s1", 1, on_done=outcomes.append)
    dep.run(5.0)
    assert [(o.ok, o.attempts) for o in outcomes] == [(False, 2)]


def test_first_attempt_on_an_unwired_port_still_raises():
    dep = pair("port_init")
    with pytest.raises(KeyError):
        dep.controller.kmp.port_key_init("s1", 3)
    assert not dep.controller.kmp._by_port


class TestBarrier:
    OK = KmpOpRecord("local_update", "s1", None, 0.001, 2, 60)
    FAILED = KmpFailure("local_update", "s2", None, 3, 0.5)

    def test_an_empty_list_resolves_once_at_once(self):
        fired = []
        _issue_all([], lambda: fired.append(True))
        assert fired == [True]

    @pytest.mark.parametrize("order", [
        [OK, FAILED, OK],      # mixed
        [OK, OK, FAILED],      # the last one to resolve is a failure
        [FAILED, FAILED, FAILED],
    ])
    def test_resolves_once_when_every_op_has(self, order):
        issued, fired = [], []
        _issue_all([issued.append] * len(order), lambda: fired.append(True))
        assert len(issued) == len(order) and not fired
        for on_done, outcome in zip(issued, order):
            assert not fired
            on_done(outcome)
        assert fired == [True]

    def test_ops_are_issued_in_list_order(self):
        order = []
        _issue_all([lambda _cb, n=n: order.append(n) for n in range(5)],
                   lambda: None)
        assert order == list(range(5))

    def test_rollover_resolves_when_its_last_op_is_abandoned(self):
        dep = pair("local_update", registers=[("demo", 64, 16)])
        dep.net.control_channels["s2"].add_tap(eat_everything)
        kmp = dep.controller.kmp
        stats = kmp.stats
        done = []

        def resolved():
            """The round's (completed, failed) counts, once it resolves."""
            records, failures = len(stats.records), len(stats.failures)
            return lambda: done.append((len(stats.records) - records,
                                        len(stats.failures) - failures))

        kmp.rollover(resolved())
        dep.run(5.0)
        # s1's local key and the s1->s2 port key roll (the port exchange
        # is DP-DP); s2's blacked-out local update is abandoned last.
        assert done == [(2, 1)]
        assert kmp.rollover_epoch("s1") == 1
        assert kmp.rollover_epoch("s2") == 0

        # The channel heals; a re-roll catches s2 up, and a write then
        # verifies with the controller and data plane in exact sequence
        # agreement.
        dep.net.control_channels["s2"].remove_tap(eat_everything)
        kmp.rollover(resolved())
        dep.run(5.0)
        assert len(done) == 2 and done[1][1] == 0
        assert kmp.rollover_epoch("s2") == 1
        written = []
        dep.controller.write_register("s2", "demo", 0, 7,
                                      lambda ok, _value: written.append(ok))
        dep.run(1.0)
        assert written == [True]
        assert dep.switch("s2").registers.get("demo").read(0) == 7
        assert dep.controller.seq_divergence()["s2"] == 0


def test_kmp_messages_leave_seq_divergence_until_a_register_op():
    """``seq_divergence`` is not 0 once everything issued is delivered:
    KMP messages draw controller seqs that ``p4auth_expected_seq`` never
    sees.  A clean fleet still passes the honest-load audit — nothing
    ahead, nothing moved — and one verified write realigns only its own
    switch, which is why the audit takes ``must_agree``."""
    sim, _net, controller, switches = build_batch_deployment(
        "P4Auth", m=8, degree=2)
    assert controller.seq_divergence() == {sw: 3 for sw in switches}
    assert not any(controller.tamper_indicators().values())
    assert [ok for _name, ok, _detail in honest_load_audit(
        controller.seq_divergence(), controller.tamper_indicators(),
        must_agree=[])] == [True, True, True]

    written = []
    controller.write_register("sw0", "target", 0, 7,
                              lambda ok, _value: written.append(ok))
    sim.run(until=sim.now + 1.0)
    assert written == [True]
    assert controller.seq_divergence() \
        == {sw: 0 if sw == "sw0" else 3 for sw in switches}
    checks = honest_load_audit(controller.seq_divergence(),
                               controller.tamper_indicators(),
                               must_agree=["sw0"])
    assert all(ok for _name, ok, _detail in checks)
    assert not honest_load_audit(controller.seq_divergence(),
                                 controller.tamper_indicators())[1][1]


def test_bootstrap_local_keys_names_the_dead_switch():
    dep = Deployment(num_switches=3, bootstrap=False)
    dep.net.nodes["s2"].up = False
    with pytest.raises(RuntimeError,
                       match=r"2/3 switches, no local key on \['s2'\]"):
        bootstrap_local_keys(dep.controller, ["s1", "s2", "s3"], 5.0)
    assert dep.controller.keys.has_local_key("s1")
    assert dep.controller.keys.has_local_key("s3")
