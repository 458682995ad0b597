"""End-to-end security properties (the paper's R1-R4 requirements)."""

import pytest

from repro.core.constants import P4AUTH
from repro.core.kmp import honest_load_audit
from repro.experiments.cdp_batch import (
    build_batch_deployment,
    tally,
    write_schedule,
)
from repro.systems.hula import make_probe
from tests.conftest import Deployment


class TestR1AuthenticityIntegrityCDP:
    """R1: authenticated C-DP messages, tamper detected and prevented."""

    def test_every_field_is_covered(self, single_switch):
        """Tampering ANY field of a request (not just value) is caught."""
        dep = single_switch
        fields = ["regId", "index", "value"]
        for offset, fname in enumerate(fields):
            channel = dep.net.control_channels["s1"]

            def tamper(packet, direction, fn=fname):
                if direction == "c->dp" and packet.has("reg_op"):
                    packet.get("reg_op")[fn] = packet.get("reg_op")[fn] ^ 1
                return packet

            channel.add_tap(tamper)
            results = []
            dep.controller.write_register("s1", "demo", 1, 0x10 + offset,
                                          lambda ok, v: results.append(ok))
            dep.run(1.0)
            channel.remove_tap(tamper)
            assert results == [False], f"tamper on {fname} not caught"

    def test_header_field_tamper_caught(self, single_switch):
        dep = single_switch
        channel = dep.net.control_channels["s1"]

        def tamper(packet, direction):
            if direction == "c->dp" and packet.has(P4AUTH):
                hdr = packet.get(P4AUTH)
                hdr["seqNum"] = (hdr["seqNum"] + 100) & 0xFFFFFFFF
            return packet

        channel.add_tap(tamper)
        results = []
        dep.controller.write_register("s1", "demo", 1, 5,
                                      lambda ok, v: results.append(ok))
        dep.run(1.0)
        assert results == []  # response seq no longer matches pending
        assert dep.dataplanes["s1"].stats.digest_fail_cdp == 1


class TestR2AuthenticityIntegrityDPDP:
    """R2: in-network feedback messages protected hop by hop."""

    def test_multihop_tamper_caught_at_next_honest_switch(self):
        dep = Deployment(num_switches=3,
                         connect_pairs=[("s1", 1, "s2", 1), ("s2", 2, "s3", 1)],
                         protected_headers=("hula_probe",))
        for name, out_port in (("s1", 1), ("s2", 2), ("s3", 2)):
            switch = dep.switch(name)
            switch.pipeline.insert_stage(
                len(switch.pipeline.stage_names()) - 1, "app",
                lambda ctx, p=out_port: ctx.emit(p)
                if ctx.packet.has("hula_probe") else None)
        # Tamper on the middle link (s2-s3).
        from repro.attacks.link import ProbeFieldTamperer
        adversary = ProbeFieldTamperer("hula_probe", "path_util", 1)
        adversary.attach(dep.net.link_between("s2", "s3"))
        node = dep.net.nodes["s1"]
        dep.sim.schedule(0.0, node.receive, make_probe(9, 1, path_util=77), 3)
        dep.run(1.0)
        assert dep.dataplanes["s2"].stats.feedback_verified == 1
        assert dep.dataplanes["s3"].stats.digest_fail_dpdp == 1


class TestR3SecureKeyManagement:
    """R3: key exchange over untrusted channels stays consistent."""

    def test_keys_survive_concurrent_traffic_and_rollover(self, switch_pair):
        dep = switch_pair
        results = []

        def keep_reading(round_index=0):
            if round_index >= 30:
                return
            dep.controller.read_register(
                "s1", "demo", 0, lambda ok, v: results.append(ok))
            dep.sim.schedule(0.05, keep_reading, round_index + 1)

        dep.controller.kmp.schedule_rollover(0.2)
        keep_reading()
        dep.run(3.0)
        dep.controller.kmp.cancel_rollover()
        # Every read during continuous key rollover still verified:
        # the two-version scheme never leaves a window without a key.
        assert len(results) == 30
        assert all(results)

    def test_writes_issued_into_a_rollover_window_all_verify(self):
        """Authenticated writes go out while a fleet ``kmp.rollover()`` is
        in flight: the two key slots keep every one verifiable, every
        cell ends at the value written last, and the honest-load audit
        (exact sequence agreement included) holds afterwards."""
        sim, net, controller, switches = build_batch_deployment(
            "P4Auth", m=12, seed=1, bootstrap=False)
        kmp = controller.kmp
        kmp.bootstrap_all()
        sim.run(until=sim.now + 30.0)
        rolled = []
        kmp.rollover(lambda: rolled.append(sim.now))
        state, on_write = tally()
        schedule = write_schedule(switches, 2)
        for switch, index, value in schedule:
            controller.write_register(switch, "target", index, value,
                                      on_write)
        assert not rolled  # the writes went out inside the window
        sim.run(until=sim.now + 30.0)
        assert rolled
        assert state == {"ok": len(schedule), "failed": 0}
        assert all(kmp.rollover_epoch(switch) == 1 for switch in switches)
        last = {(switch, index): value
                for switch, index, value in schedule}
        assert all(net.switch(switch).registers.get("target").read(index)
                   == value for (switch, index), value in last.items())
        assert [(name, ok) for name, ok, _detail in honest_load_audit(
            controller.seq_divergence(), controller.tamper_indicators())] \
            == [("no_forged_write", True), ("seq_agreement", True),
                ("defenses_quiet", True)]

    def test_dpdp_probes_survive_port_key_rollover(self):
        dep = Deployment(num_switches=2,
                         connect_pairs=[("s1", 1, "s2", 1)],
                         protected_headers=("hula_probe",))
        switch = dep.switch("s1")
        switch.pipeline.insert_stage(
            len(switch.pipeline.stage_names()) - 1, "app",
            lambda ctx: ctx.emit(1) if ctx.packet.has("hula_probe") else None)
        node = dep.net.nodes["s1"]

        def send_probe(index=0):
            if index >= 20:
                return
            dep.sim.schedule(0.0, node.receive, make_probe(9, index, 5), 2)
            dep.sim.schedule(0.05, send_probe, index + 1)

        dep.controller.kmp.schedule_rollover(0.15)
        send_probe()
        dep.run(2.0)
        dep.controller.kmp.cancel_rollover()
        stats = dep.dataplanes["s2"].stats
        assert stats.feedback_verified == 20
        assert stats.digest_fail_dpdp == 0


class TestR4LineRateChecks:
    """R4: DP-DP checks happen in the data plane, not via the controller."""

    def test_probe_never_detours_to_controller(self):
        dep = Deployment(num_switches=2,
                         connect_pairs=[("s1", 1, "s2", 1)],
                         protected_headers=("hula_probe",))
        switch = dep.switch("s1")
        switch.pipeline.insert_stage(
            len(switch.pipeline.stage_names()) - 1, "app",
            lambda ctx: ctx.emit(1) if ctx.packet.has("hula_probe") else None)
        before = dep.net.control_channels["s2"].messages_carried
        node = dep.net.nodes["s1"]
        dep.sim.schedule(0.0, node.receive, make_probe(9, 1, 5), 2)
        dep.run(1.0)
        # Verified in the data plane: zero control-channel messages.
        assert dep.net.control_channels["s2"].messages_carried == before
        assert dep.dataplanes["s2"].stats.feedback_verified == 1


class TestKeyConfidentiality:
    def test_port_key_never_crosses_any_channel(self):
        """Fully passive global adversary: record every message on every
        channel and link during bootstrap + rollover; the port key never
        appears in any field of any message."""
        from repro.attacks.base import Eavesdropper
        dep = Deployment(num_switches=2,
                         connect_pairs=[("s1", 1, "s2", 1)],
                         bootstrap=False)
        spies = []
        for channel in dep.net.control_channels.values():
            spy = Eavesdropper()
            spy.attach(channel)
            spies.append(spy)
        for link in dep.net.links:
            spy = Eavesdropper()
            spy.attach(link)
            spies.append(spy)
        dep.controller.kmp.bootstrap_all()
        dep.run(1.0)
        dep.controller.kmp.port_key_update("s1", 1)
        dep.run(1.0)
        keys = {
            dep.dataplanes["s1"].keys.port_key(1, 0),
            dep.dataplanes["s1"].keys.port_key(1, 1),
        } - {0}
        assert keys
        observed = set()
        for spy in spies:
            for packet in spy.recordings:
                for name in packet.header_names():
                    observed.update(packet.get(name).fields().values())
        assert not (keys & observed)

    def test_local_key_never_crosses_any_channel(self):
        from repro.attacks.base import Eavesdropper
        dep = Deployment(num_switches=1, bootstrap=False)
        spy = Eavesdropper()
        spy.attach(dep.net.control_channels["s1"])
        dep.controller.kmp.local_key_init("s1")
        dep.run(1.0)
        dep.controller.kmp.local_key_update("s1")
        dep.run(1.0)
        keys = {dep.dataplanes["s1"].keys.local_key(0),
                dep.dataplanes["s1"].keys.local_key(1)} - {0}
        observed = set()
        for packet in spy.recordings:
            for name in packet.header_names():
                observed.update(packet.get(name).fields().values())
        assert keys and not (keys & observed)
