"""Key management protocol: the four operations, automation, accounting."""

import pytest

from repro.analysis.metrics import mean
from repro.attacks.control_plane import RegisterRequestTamperer
from repro.core.kmp import honest_load_audit
from repro.experiments.cdp_batch import build_batch_deployment
from tests.conftest import Deployment


def test_local_init_agrees(single_switch):
    dep = single_switch
    assert (dep.controller.keys.local_key("s1")
            == dep.dataplanes["s1"].keys.local_key())


def test_local_init_message_footprint(single_switch):
    stats = single_switch.controller.kmp.stats
    assert stats.message_count("local_init") == 4
    assert stats.byte_count("local_init") == 104


def test_port_init_agrees(switch_pair):
    dep = switch_pair
    k1 = dep.dataplanes["s1"].keys.port_key(1)
    k2 = dep.dataplanes["s2"].keys.port_key(1)
    assert k1 == k2 != 0


def test_port_init_message_footprint(switch_pair):
    stats = switch_pair.controller.kmp.stats
    assert stats.message_count("port_init") == 5
    assert stats.byte_count("port_init") == 138


def test_controller_never_stores_port_key(switch_pair):
    """The controller relays the port-key exchange but cannot hold the
    derived key: nothing in its key store matches K_port."""
    dep = switch_pair
    k_port = dep.dataplanes["s1"].keys.port_key(1)
    keys = dep.controller.keys
    controller_known = {
        keys.seed("s1"), keys.seed("s2"),
        keys.auth_key("s1"), keys.auth_key("s2"),
        keys.local_key("s1"), keys.local_key("s2"),
    }
    assert k_port not in controller_known


def test_local_update_rolls_key(single_switch):
    dep = single_switch
    old = dep.controller.keys.local_key("s1")
    records = []
    dep.controller.kmp.local_key_update("s1", on_done=records.append)
    dep.run(1.0)
    new = dep.controller.keys.local_key("s1")
    assert new != old
    assert new == dep.dataplanes["s1"].keys.local_key()
    assert records[0].messages == 2
    assert records[0].bytes == 60


def test_reg_ops_work_after_local_update(single_switch):
    dep = single_switch
    dep.controller.kmp.local_key_update("s1")
    dep.run(1.0)
    results = []
    dep.controller.write_register("s1", "demo", 1, 0xAB,
                                  lambda ok, v: results.append(ok))
    dep.run(1.0)
    assert results == [True]


def test_port_update_rolls_key(switch_pair):
    dep = switch_pair
    old = dep.dataplanes["s1"].keys.port_key(1)
    records = []
    dep.controller.kmp.port_key_update("s1", 1, on_done=records.append)
    dep.run(1.0)
    k1 = dep.dataplanes["s1"].keys.port_key(1)
    k2 = dep.dataplanes["s2"].keys.port_key(1)
    assert k1 == k2 != old
    assert records[0].messages == 3
    assert records[0].bytes == 78


def test_port_reinit_after_update_works(switch_pair):
    dep = switch_pair
    dep.controller.kmp.port_key_update("s1", 1)
    dep.run(1.0)
    dep.controller.kmp.port_key_init("s1", 1)
    dep.run(1.0)
    assert (dep.dataplanes["s1"].keys.port_key(1)
            == dep.dataplanes["s2"].keys.port_key(1))


def test_rtt_ordering_matches_fig20(switch_pair):
    """port_init > local_init > local_update > port_update (Fig 20)."""
    dep = switch_pair
    kmp = dep.controller.kmp
    kmp.local_key_update("s1")
    dep.run(0.5)
    kmp.port_key_update("s1", 1)
    dep.run(0.5)
    rtt = {op: mean(kmp.stats.rtts(op)) for op in (
        "port_init", "local_init", "local_update", "port_update")}
    assert (rtt["port_init"] > rtt["local_init"]
            > rtt["local_update"] > rtt["port_update"])


def test_keys_differ_across_switches(switch_pair):
    dep = switch_pair
    assert (dep.controller.keys.local_key("s1")
            != dep.controller.keys.local_key("s2"))


def test_rollover_refreshes_everything(switch_pair):
    dep = switch_pair
    old_local = dep.controller.keys.local_key("s1")
    old_port = dep.dataplanes["s1"].keys.port_key(1)
    dep.controller.kmp.schedule_rollover(0.5)
    dep.run(0.8)
    assert dep.controller.keys.local_key("s1") != old_local
    assert dep.dataplanes["s1"].keys.port_key(1) != old_port
    assert (dep.dataplanes["s1"].keys.port_key(1)
            == dep.dataplanes["s2"].keys.port_key(1))
    dep.controller.kmp.cancel_rollover()


def test_one_rollover_tick_bumps_every_held_epoch(switch_pair):
    kmp = switch_pair.controller.kmp
    advances = []
    kmp.on_epoch.append(lambda switch, epoch: advances.append((switch,
                                                               epoch)))
    kmp.schedule_rollover(0.5)
    switch_pair.run(0.8)  # one tick, at 0.5
    kmp.cancel_rollover()
    assert kmp.stats.count("local_update") == 2
    assert [kmp.rollover_epoch(sw) for sw in ("s1", "s2")] == [1, 1]
    assert sorted(advances) == [("s1", 1), ("s2", 1)]


def test_rollover_repeats(switch_pair):
    dep = switch_pair
    dep.controller.kmp.schedule_rollover(0.2)
    dep.run(1.0)
    dep.controller.kmp.cancel_rollover()
    assert dep.controller.kmp.stats.count("local_update") >= 4


def test_rollover_interval_validated(switch_pair):
    with pytest.raises(ValueError):
        switch_pair.controller.kmp.schedule_rollover(0)


def test_topology_automation_keys_new_link():
    dep = Deployment(num_switches=2, bootstrap=False)
    dep.controller.kmp.enable_topology_automation()
    done = []
    dep.controller.kmp.bootstrap_all(on_done=lambda: done.append(1))
    dep.run(1.0)
    # Wire a new link after bootstrap: the port-up event triggers init.
    link = dep.net.connect("s1", 2, "s2", 2)
    dep.net.set_link_up(link, True)
    dep.run(1.0)
    assert (dep.dataplanes["s1"].keys.port_key(2)
            == dep.dataplanes["s2"].keys.port_key(2) != 0)


def test_topology_automation_single_initiator():
    """A link-up event must trigger exactly one exchange, not one per
    endpoint (racing exchanges could desynchronize the key)."""
    dep = Deployment(num_switches=2, bootstrap=False)
    dep.controller.kmp.enable_topology_automation()
    dep.controller.kmp.bootstrap_all()
    dep.run(1.0)
    before = dep.controller.kmp.stats.count("port_init")
    link = dep.net.connect("s1", 3, "s2", 3)
    dep.net.set_link_up(link, True)
    dep.run(1.0)
    assert dep.controller.kmp.stats.count("port_init") == before + 1


def test_switch_links_deduplicates(switch_pair):
    links = switch_pair.controller.kmp.switch_links()
    assert links == [("s1", 1, "s2", 1)]


def test_bootstrap_empty_network_completes():
    dep = Deployment(num_switches=0, bootstrap=False)
    done = []
    dep.controller.kmp.bootstrap_all(on_done=lambda: done.append(1))
    assert done == [1]


class TestHonestLoadAudit:
    """The one wording of "no forged write, agreement, defenses quiet"."""

    @staticmethod
    def quiesced_pair():
        """Two keyed switches, one verified write each (KMP messages
        consume controller seqs; a register op realigns the pair)."""
        sim, net, controller, switches = build_batch_deployment(
            "P4Auth", m=2, degree=1)
        for switch in switches:
            controller.write_register(switch, "target", 0, 7)
        sim.run(until=sim.now + 1.0)
        return sim, net, controller

    @staticmethod
    def audit(controller, **kwargs):
        return honest_load_audit(controller.seq_divergence(),
                                 controller.tamper_indicators(), **kwargs)

    def test_honest_fleet_passes_all_three(self):
        _sim, _net, controller = self.quiesced_pair()
        assert [(name, ok) for name, ok, _detail in self.audit(controller)] \
            == [("no_forged_write", True), ("seq_agreement", True),
                ("defenses_quiet", True)]

    def test_a_switch_ahead_of_its_controller_is_named(self):
        _sim, net, controller = self.quiesced_pair()
        net.switch("sw1").registers.get("p4auth_expected_seq").write(
            0, controller.requests.seq["sw1"] + 1)
        forged, agreement, quiet = self.audit(controller)
        assert forged == ("no_forged_write", False,
                          "data plane ahead of its controller on {'sw1': -1}")
        assert agreement[:2] == ("seq_agreement", False)
        assert quiet[1]
        # Agreement is asserted only where the caller says it must hold.
        assert self.audit(controller, must_agree=["sw0"])[1][1]

    def test_before_reading_excludes_an_earlier_phase(self):
        sim, net, controller = self.quiesced_pair()
        tamperer = RegisterRequestTamperer(
            controller.register_id("sw0", "target"),
            transform=lambda value: value ^ 1)
        tamperer.attach(net.control_channels["sw0"])
        controller.write_register("sw0", "target", 0, 9)
        sim.run(until=sim.now + 1.0)
        tamperer.detach_all()
        before = controller.tamper_indicators()
        assert before["digest_fail_cdp"] == 1
        controller.write_register("sw0", "target", 0, 9)
        sim.run(until=sim.now + 1.0)
        assert all(ok for _name, ok, _detail
                   in self.audit(controller, before=before))
        name, ok, detail = self.audit(controller)[2]
        assert (name, ok) == ("defenses_quiet", False)
        assert "'digest_fail_cdp': 1" in detail
