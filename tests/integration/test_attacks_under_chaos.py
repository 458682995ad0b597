"""Adversaries composed with fault injection (ISSUE 2 satellite).

The attack suite already shows each adversary is caught on a healthy
network; here the same adversaries act *mid-chaos* and must still be
100% rejected.  C-DP attacks compose with control-channel blackouts
(link faults never touch the control channel); the DP-DP probe attack
composes with loss/duplication/reordering on the real link.  Loss may
eat an attacker's packet (that is not a rejection), so every invariant
is phrased over the packets that actually arrived.
"""

from repro.attacks.control_plane import RegisterRequestTamperer, ReplayAttacker
from repro.attacks.link import ProbeFieldTamperer
from repro.core.constants import REG_OP
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChannelBlackout, FaultPlan, LinkFault
from repro.systems.hula import make_probe
from tests.conftest import Deployment


def test_tampered_writes_all_rejected_mid_chaos():
    """Every C-DP write the tamperer touches is rejected, while a
    blackout swallows part of the stream; the register never holds a
    forged value."""
    dep = Deployment(num_switches=1, registers=[("demo", 64, 16)])
    t0 = dep.sim.now
    plan = FaultPlan(seed=0xC4A05, blackouts=[
        ChannelBlackout("s1", t0 + 0.3, t0 + 0.6, direction="c->dp")])
    injector = FaultInjector(dep.net, plan).arm()
    tamperer = RegisterRequestTamperer(
        dep.controller.register_id("s1", "demo"),
        transform=lambda v: v ^ 0xBAD)
    tamperer.attach(dep.net.control_channels["s1"])
    outcomes = []

    def send_write(k=0):
        if k >= 40:
            return
        dep.controller.write_register("s1", "demo", k % 16, 0x2000 + k,
                                      lambda ok, v: outcomes.append(ok))
        dep.sim.schedule(0.02, send_write, k + 1)

    send_write()
    dep.run(2.0)
    injector.disarm()
    assert injector.stats.count("blackout") > 0  # chaos really composed
    modified = tamperer.stats.modified
    assert 0 < modified < 40  # blackout ate the rest before the tamperer
    # 100% rejection: not one tampered write was acknowledged...
    assert outcomes.count(True) == 0
    # ...every arriving one failed its digest...
    assert dep.dataplanes["s1"].stats.digest_fail_cdp == modified
    # ...and the ASIC never stored anything.
    demo = dep.switch("s1").registers.get("demo")
    assert all(demo.read(index) == 0 for index in range(16))


def test_replayed_writes_all_rejected_mid_chaos():
    """Validly-signed requests recorded earlier and re-injected at the
    CPU port mid-blackout are caught by the sequence window and never
    re-applied."""
    dep = Deployment(num_switches=1, registers=[("demo", 64, 16)])
    reg_id = dep.controller.register_id("s1", "demo")
    replayer = ReplayAttacker(
        lambda p: p.has(REG_OP) and p.get(REG_OP)["regId"] == reg_id)
    replayer.attach(dep.net.control_channels["s1"])
    # Record a few legitimate (signed) writes on a healthy channel.
    for k in range(4):
        dep.controller.write_register("s1", "demo", 0, 0x4000 + k)
    dep.run(0.5)
    assert replayer.stats.recorded >= 4
    final_legit = dep.switch("s1").registers.get("demo").read(0)

    # Blackout the response leg: the switch is cut off from the
    # controller while the attacker (who injects below the channel)
    # still reaches the CPU port.
    t0 = dep.sim.now
    plan = FaultPlan(seed=77, blackouts=[
        ChannelBlackout("s1", t0, t0 + 1.0, direction="dp->c")])
    injector = FaultInjector(dep.net, plan).arm()
    replays_before = dep.dataplanes["s1"].stats.replays_detected
    burst = sum(replayer.replay(dep.net, "s1") for _ in range(3))
    dep.run(1.0)
    injector.disarm()
    detected = dep.dataplanes["s1"].stats.replays_detected - replays_before
    assert burst == replayer.stats.injected == 12
    assert detected > 0
    # 100% rejection: state is exactly what the last legitimate write left.
    assert dep.switch("s1").registers.get("demo").read(0) == final_legit


def test_tampered_probes_all_rejected_mid_chaos():
    """DP-DP probes tampered on the wire never verify, even when the
    fault layer is simultaneously dropping, duplicating, and reordering
    the same link."""
    dep = Deployment(num_switches=2,
                     connect_pairs=[("s1", 1, "s2", 1)],
                     protected_headers=("hula_probe",))
    switch = dep.switch("s1")
    switch.pipeline.insert_stage(
        len(switch.pipeline.stage_names()) - 1, "app",
        lambda ctx: ctx.emit(1) if ctx.packet.has("hula_probe") else None)
    plan = FaultPlan(seed=5, link_faults=[
        LinkFault("drop", probability=0.1),
        LinkFault("duplicate", probability=0.1, delay_s=1e-4),
        LinkFault("reorder", probability=0.2, delay_s=2e-4),
    ])
    injector = FaultInjector(dep.net, plan).arm()
    tamperer = ProbeFieldTamperer("hula_probe", "path_util", 1)
    tamperer.attach(dep.net.link_between("s1", "s2"))
    node = dep.net.nodes["s1"]

    def send_probe(index=0):
        if index >= 30:
            return
        dep.sim.schedule(0.0, node.receive, make_probe(9, index, 5), 2)
        dep.sim.schedule(0.02, send_probe, index + 1)

    send_probe()
    dep.run(2.0)
    injector.disarm()
    stats = dep.dataplanes["s2"].stats
    assert injector.stats.total() > 0  # faults really fired on this link
    assert tamperer.stats.modified > 0
    # The tamperer rewrites every probe (taps run before the fault
    # shaper, so duplicates clone already-tampered packets): nothing
    # that arrived may verify, and everything that arrived must fail.
    assert stats.feedback_verified == 0
    assert stats.digest_fail_dpdp > 0
