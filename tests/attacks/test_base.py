"""Adversary tap lifecycle: attach idempotence and detach symmetry.

Regressions for the duplicate-tap bug: ``Link.add_tap`` blindly appends,
so a double ``attach`` used to install two taps — double-counting stats
and leaving one tap behind after ``detach_all`` (``remove_tap`` removes
a single entry).
"""

import dataclasses

import pytest

import repro.attacks  # noqa: F401  (defines every Adversary subclass)
from repro.attacks.base import Adversary, Eavesdropper, MessageDropper
from repro.attacks.bruteforce import DigestBruteForcer
from repro.attacks.control_plane import (
    DosFlooder,
    RegisterRequestTamperer,
    RegisterResponseTamperer,
    ReplayAttacker,
)
from repro.attacks.link import KeyExchangeTamperer, ProbeFieldTamperer
from repro.core.constants import KeyExchType
from repro.core.messages import (
    build_adhkd_message,
    build_reg_response,
    build_reg_write_request,
)
from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator


def _linked_pair():
    sim = EventSimulator()
    net = Network(sim)
    for name in ("a", "b"):
        net.add_switch(DataplaneSwitch(name, num_ports=2))
    link = net.connect("a", 1, "b", 1)
    return sim, net, link


def _send_one(link):
    """Run one packet through the link's tap path."""
    link.transit(Packet(payload=b"x"), "a->b")


class TestAttachIdempotence:
    def test_double_attach_installs_one_tap(self):
        _sim, _net, link = _linked_pair()
        adversary = Eavesdropper()
        adversary.attach(link)
        adversary.attach(link)
        assert len(link.taps) == 1

    def test_double_attach_counts_each_packet_once(self):
        sim, net, link = _linked_pair()
        adversary = Eavesdropper()
        adversary.attach(link).attach(link)
        _send_one(link)
        assert adversary.stats.seen == 1
        assert adversary.stats.recorded == 1

    def test_detach_all_after_double_attach_leaves_channel_clean(self):
        sim, net, link = _linked_pair()
        adversary = Eavesdropper()
        adversary.attach(link)
        adversary.attach(link)
        adversary.detach_all()
        assert link.taps == []
        _send_one(link)
        assert adversary.stats.seen == 0

    def test_attach_returns_self_for_chaining(self):
        _sim, _net, link = _linked_pair()
        adversary = Eavesdropper()
        assert adversary.attach(link) is adversary


class TestDetachSymmetry:
    def test_detach_single_channel(self):
        sim, net, link = _linked_pair()
        adversary = Eavesdropper()
        adversary.attach(link)
        adversary.detach(link)
        assert link.taps == []
        _send_one(link)
        assert adversary.stats.seen == 0

    def test_detach_unattached_channel_is_noop(self):
        _sim, _net, link = _linked_pair()
        adversary = Eavesdropper()
        adversary.detach(link)  # never attached: must not raise
        assert link.taps == []

    def test_detach_leaves_other_channels_attached(self):
        sim = EventSimulator()
        net = Network(sim)
        for name in ("a", "b", "c"):
            net.add_switch(DataplaneSwitch(name, num_ports=3))
        link_ab = net.connect("a", 1, "b", 1)
        link_ac = net.connect("a", 2, "c", 1)
        adversary = Eavesdropper()
        adversary.attach(link_ab)
        adversary.attach(link_ac)
        adversary.detach(link_ab)
        assert link_ab.taps == []
        assert len(link_ac.taps) == 1
        adversary.detach_all()
        assert link_ac.taps == []


#: One way to build each Adversary subclass the package defines (the
#: two injectors aim at switch "a" of the linked pair).
ADVERSARIES = {
    Eavesdropper: lambda net: Eavesdropper(),
    MessageDropper: lambda net: MessageDropper(lambda p: p.has("eak")),
    RegisterResponseTamperer:
        lambda net: RegisterResponseTamperer([(1, 0)], lambda v: v + 1),
    RegisterRequestTamperer:
        lambda net: RegisterRequestTamperer(1, lambda v: v + 1),
    ReplayAttacker: lambda net: ReplayAttacker(lambda p: True),
    DosFlooder: lambda net: DosFlooder(net, "a", 1, rate_hz=200.0),
    ProbeFieldTamperer: lambda net: ProbeFieldTamperer("hula_probe",
                                                       "path_util", 2),
    KeyExchangeTamperer: lambda net: KeyExchangeTamperer(),
    DigestBruteForcer: lambda net: DigestBruteForcer(net, "a", 1, 0, 7),
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_lifecycle_table_covers_every_adversary_in_the_package():
    defined = {cls for cls in _all_subclasses(Adversary)
               if cls.__module__.startswith("repro.attacks")}
    assert defined == set(ADVERSARIES)


@pytest.mark.parametrize("cls", ADVERSARIES, ids=lambda cls: cls.__name__)
def test_uniform_lifecycle(cls):
    """Attach twice = one tap; detach_all() leaves the channel as found;
    no traffic, timer or detach ever takes a count back."""
    from repro.systems.hula import make_probe

    sim, net, _link = _linked_pair()
    channel = net.control_channels["a"]

    def bystander(packet, _direction):
        return packet

    channel.add_tap(bystander)
    adversary = ADVERSARIES[cls](net)
    adversary.attach(channel).attach(channel)
    assert channel.taps == [bystander, adversary._tap]

    history = [dataclasses.astuple(adversary.stats)]

    def snapshot():
        history.append(dataclasses.astuple(adversary.stats))

    traffic = [
        Packet(payload=b"x"),
        build_reg_write_request(1, 0, 5, seq_num=1),
        build_reg_response(True, 1, 0, 5, seq_num=1),
        build_adhkd_message(KeyExchType.ADHKD_MSG1, 3, 4, seq_num=2),
        make_probe(5, 0),
    ]
    for packet in traffic:
        for direction in ("c->dp", "dp->c"):
            channel.transit(packet.copy(), direction)
            snapshot()
    if cls is DosFlooder:
        adversary.start(0.05)
    if cls is DigestBruteForcer:
        adversary.attempt(5, spacing_s=0.01)
    for _ in range(10):
        sim.run(until=sim.now + 0.01)
        snapshot()
    adversary.detach_all()
    snapshot()
    assert channel.taps == [bystander]
    channel.transit(Packet(payload=b"x"), "c->dp")
    snapshot()

    for before, after in zip(history, history[1:]):
        assert all(b <= a for b, a in zip(before, after)), (before, after)
    assert history[-1] != history[0], "the adversary never did anything"
