"""Regional key authorities and the honest-load audit."""

import pytest

from repro.attacks.control_plane import RegisterRequestTamperer
from repro.core.kmp import RegionalKeyAuthority, honest_load_audit
from repro.experiments.cdp_batch import build_batch_deployment
from repro.telemetry import Telemetry


def small_region(m=9, seed=1, telemetry=None):
    sim, _net, controller, _switches = build_batch_deployment(
        "P4Auth", m=m, seed=seed, bootstrap=False, telemetry=telemetry)
    authority = RegionalKeyAuthority("r0", controller)
    return sim, controller, len(controller.kmp.switch_links()), authority


class TestRegionalKeyAuthority:
    def test_bootstrap_times_and_counts_the_round(self):
        sim, controller, links, authority = small_region()
        done = []
        authority.bootstrap(on_done=done.append)
        sim.run(until=30.0)
        assert len(done) == 1
        convergence = done[0]
        assert convergence.op == "bootstrap"
        assert convergence.region == "r0"
        # One record per local init plus one per link's port init.
        assert convergence.completed == 9 + links
        assert convergence.failed == 0
        assert convergence.duration_s > 0
        assert [c.op for c in authority.convergences] == ["bootstrap"]

    def test_rollover_bumps_every_epoch_exactly_once(self):
        sim, controller, _links, authority = small_region()
        authority.bootstrap()
        sim.run(until=30.0)
        assert all(controller.kmp.rollover_epoch(sw) == 0
                   for sw in controller.dataplanes)
        done = []
        authority.rollover(on_done=done.append)
        sim.run(until=sim.now + 30.0)
        assert len(done) == 1 and done[0].failed == 0
        assert all(controller.kmp.rollover_epoch(sw) == 1
                   for sw in controller.dataplanes)
        assert [c.op for c in authority.convergences] == [
            "bootstrap", "rollover"]

    def test_concurrent_rollover_is_rejected(self):
        sim, _controller, _links, authority = small_region()
        authority.bootstrap()
        sim.run(until=30.0)
        authority.rollover()
        with pytest.raises(RuntimeError, match="already in flight"):
            authority.rollover()
        sim.run(until=sim.now + 30.0)  # let the first one finish
        authority.rollover()           # now legal again
        sim.run(until=sim.now + 30.0)
        assert [c.op for c in authority.convergences] == [
            "bootstrap", "rollover", "rollover"]

    def test_clean_fleet_has_no_forgery_evidence(self):
        sim, _controller, _links, authority = small_region()
        authority.bootstrap()
        sim.run(until=30.0)
        divergence = authority.seq_divergence()
        assert min(divergence.values()) >= 0
        assert not any(authority.tamper_indicators().values())

    def test_per_region_telemetry_labels(self):
        telemetry = Telemetry(enabled=True)
        sim, _controller, _links, authority = small_region(
            telemetry=telemetry)
        authority.bootstrap()
        sim.run(until=30.0)
        authority.rollover()
        sim.run(until=sim.now + 30.0)
        metrics = telemetry.metrics
        assert metrics.value("kmp_region_bootstrap_total", region="r0") == 1
        assert metrics.value("kmp_region_rollover_total", region="r0") == 1
        histogram = metrics.get("kmp_region_convergence_seconds",
                                region="r0", op="rollover")
        assert histogram is not None and histogram.count == 1


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
