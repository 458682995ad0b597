"""The data-plane P4Auth module: verification, dispatch, defenses."""

import pytest

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.constants import AlertCode, HdrType, P4AUTH, RegOpType
from repro.core.digest import DigestEngine
from repro.core.keys import LOCAL_KEY_INDEX
from repro.core.messages import (
    build_reg_read_request,
    build_reg_write_request,
)
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import Drop, Emit, ToController
from repro.dataplane.switch import DataplaneSwitch

K_SEED = 0x5EED_5EED_5EED_5EED
K_LOCAL = 0x10CA1_0CA1


def make_dataplane(**config_kwargs):
    switch = DataplaneSwitch("s1", num_ports=4)
    switch.registers.define("demo", 64, 8)
    dataplane = P4AuthDataplane(switch, K_SEED,
                                config=P4AuthConfig(**config_kwargs))
    dataplane.install()
    dataplane.map_register("demo")
    dataplane.keys.install_at(LOCAL_KEY_INDEX, K_LOCAL, 0)
    return switch, dataplane


def signed_write(value=0xBEEF, seq=1, index=2, reg_id=None, switch=None,
                 key=K_LOCAL, key_ver=None):
    if reg_id is None:
        reg_id = switch.registers.id_of("demo")
    message = build_reg_write_request(reg_id, index, value, seq)
    if key_ver is not None:
        message.get(P4AUTH)["keyVer"] = key_ver
    DigestEngine().sign(key, message)
    return message


def responses_of(actions):
    return [a for a in actions if isinstance(a, ToController)]


class TestInstallation:
    def test_verify_first_sign_last(self):
        switch = DataplaneSwitch("s1", num_ports=2)
        switch.pipeline.add_stage("app", lambda ctx: None)
        P4AuthDataplane(switch, K_SEED).install()
        names = switch.pipeline.stage_names()
        assert names[0] == "p4auth_verify"
        assert names[-1] == "p4auth_sign"

    def test_double_install_rejected(self):
        switch = DataplaneSwitch("s1", num_ports=2)
        dataplane = P4AuthDataplane(switch, K_SEED).install()
        with pytest.raises(RuntimeError):
            dataplane.install()

    def test_key_registers_not_mappable(self):
        """The controller must never read key material via C-DP ops."""
        switch, dataplane = make_dataplane()
        with pytest.raises(PermissionError):
            dataplane.map_register("p4auth_keys_v0")

    def test_map_all_skips_p4auth_state(self):
        switch = DataplaneSwitch("s1", num_ports=2)
        switch.registers.define("app_reg", 32, 4)
        dataplane = P4AuthDataplane(switch, K_SEED).install()
        mapped = dataplane.map_all_registers()
        assert "app_reg" in mapped
        assert not any(name.startswith("p4auth_") for name in mapped)


class TestRegisterOps:
    def test_authenticated_write_applies(self):
        switch, dataplane = make_dataplane()
        actions = switch.process(signed_write(switch=switch), 0)
        assert switch.registers.get("demo").read(2) == 0xBEEF
        response = responses_of(actions)[0].packet
        assert response.get(P4AUTH)["msgType"] == RegOpType.ACK
        assert response.get(P4AUTH)["seqNum"] == 1
        assert dataplane.stats.regops_served == 1

    def test_response_is_signed_with_local_key(self):
        switch, dataplane = make_dataplane()
        actions = switch.process(signed_write(switch=switch), 0)
        response = responses_of(actions)[0].packet
        assert DigestEngine().verify(K_LOCAL, response)

    def test_authenticated_read_returns_value(self):
        switch, dataplane = make_dataplane()
        switch.registers.get("demo").write(5, 0x42)
        message = build_reg_read_request(switch.registers.id_of("demo"), 5, 1)
        DigestEngine().sign(K_LOCAL, message)
        actions = switch.process(message, 0)
        response = responses_of(actions)[0].packet
        assert response.get("reg_op")["value"] == 0x42

    def test_tampered_write_nacked_and_not_applied(self):
        switch, dataplane = make_dataplane()
        message = signed_write(switch=switch)
        message.get("reg_op")["value"] = 0x6666  # tamper after signing
        actions = switch.process(message, 0)
        assert switch.registers.get("demo").read(2) == 0
        response = responses_of(actions)[0].packet
        assert response.get(P4AUTH)["msgType"] == RegOpType.NACK
        assert dataplane.stats.digest_fail_cdp == 1

    def test_wrong_key_rejected(self):
        switch, dataplane = make_dataplane()
        message = signed_write(switch=switch, key=K_LOCAL ^ 1)
        switch.process(message, 0)
        assert dataplane.stats.digest_fail_cdp == 1
        assert switch.registers.get("demo").read(2) == 0

    def test_unknown_register_nacked_and_alerted(self):
        switch, dataplane = make_dataplane()
        message = signed_write(switch=switch, reg_id=9999)
        actions = switch.process(message, 0)
        packets = [a.packet for a in responses_of(actions)]
        # Both an operator alert and a nAck toward the requester.
        alert = next(p for p in packets
                     if p.get(P4AUTH)["hdrType"] == HdrType.ALERT)
        assert alert.get("alert")["code"] == AlertCode.UNKNOWN_REGISTER
        nack = next(p for p in packets
                    if p.get(P4AUTH)["hdrType"] == HdrType.REGISTER_OP)
        assert nack.get(P4AUTH)["msgType"] == RegOpType.NACK
        assert dataplane.stats.unknown_register == 1


class TestReplayDefense:
    def test_replay_detected(self):
        switch, dataplane = make_dataplane()
        message = signed_write(switch=switch, seq=5)
        switch.process(message.copy(), 0)
        # Bit-exact replay: valid digest, stale sequence number.
        actions = switch.process(message.copy(), 0)
        assert dataplane.stats.replays_detected == 1
        nacks = [a.packet for a in responses_of(actions)
                 if a.packet.has(P4AUTH)
                 and a.packet.get(P4AUTH)["msgType"] == RegOpType.NACK]
        assert nacks

    def test_seq_gap_tolerated(self):
        """Higher-than-expected sequence numbers are accepted (losses)."""
        switch, dataplane = make_dataplane()
        switch.process(signed_write(switch=switch, seq=1), 0)
        switch.process(signed_write(switch=switch, seq=10, value=0x7), 0)
        assert dataplane.stats.replays_detected == 0
        assert switch.registers.get("demo").read(2) == 0x7

    def test_replayed_value_not_applied(self):
        switch, dataplane = make_dataplane()
        message = signed_write(switch=switch, seq=5, value=0x1111)
        switch.process(message.copy(), 0)
        switch.registers.get("demo").write(2, 0x2222)
        switch.process(message.copy(), 0)
        assert switch.registers.get("demo").read(2) == 0x2222


class TestStrictCpu:
    def test_unauthenticated_reg_op_dropped(self):
        switch, dataplane = make_dataplane()
        from repro.core.constants import REG_OP_HEADER
        raw = Packet()
        raw.push("reg_op", REG_OP_HEADER.instantiate(
            regId=switch.registers.id_of("demo"), index=2, value=9))
        actions = switch.process(raw, 0)
        assert any(isinstance(a, Drop) for a in actions)
        assert switch.registers.get("demo").read(2) == 0
        assert dataplane.stats.unauthenticated_dropped == 1

    def test_non_regop_cpu_traffic_passes(self):
        switch, dataplane = make_dataplane()
        actions = switch.process(Packet(), 0)
        assert not any(isinstance(a, Drop) for a in actions)

    def test_unauthenticated_probe_on_cpu_port_dropped(self):
        """The CPU port is the untrusted switch-OS channel: a protected
        feedback message arriving there without a digest is refused like
        an unauthenticated register op, with a rate-limited alert."""
        from repro.systems.hula import make_probe
        switch, dataplane = make_dataplane(
            protected_headers={"hula_probe"}, alert_threshold=2,
            alert_window_s=10.0)
        reached = []
        switch.pipeline.add_stage("app", reached.append)
        for probe_id in range(5):
            actions = switch.process(make_probe(5, probe_id), 0)
            assert any(isinstance(a, Drop) for a in actions)
        assert not reached
        assert dataplane.stats.unauthenticated_dropped == 5
        assert dataplane.stats.alerts_raised == 2
        assert dataplane.stats.alerts_suppressed == 3

    def test_cpu_injected_probe_does_not_steer_hula(self):
        from repro.attacks.base import inject_cpu
        from repro.core.controller import P4AuthController
        from repro.net.topology import hula_fig3_topology
        from repro.systems.hula import (
            HulaDataplane, fig3_hula_configs, make_data_packet, make_probe)

        net, extras = hula_fig3_topology()
        sim, h1, h5 = extras["sim"], extras["h1"], extras["h5"]
        hulas = {name: HulaDataplane(net.switch(name), config).install()
                 for name, config in fig3_hula_configs().items()}
        dataplanes = {
            name: P4AuthDataplane(
                net.switch(name), k_seed=0xAB00 + index,
                config=P4AuthConfig(protected_headers={"hula_probe"}),
            ).install()
            for index, name in enumerate(sorted(hulas))}
        controller = P4AuthController(net)
        for dataplane in dataplanes.values():
            controller.provision(dataplane)
        controller.kmp.bootstrap_all()
        sim.run(until=0.1)
        # Warm up: probes set the best hop, data traffic loads the paths.
        for index in range(20):
            sim.schedule(index * 0.005, h5.send, make_probe(5, index))
        for index in range(500):
            sim.schedule(index * 0.0002, h1.send,
                         make_data_packet(5, flow_id=index, seq=index))
        sim.run(until=0.2)
        s1 = hulas["s1"]
        best_hop, min_util = s1.best_hop.read(5), s1.min_util.read(5)
        assert best_hop == 3 and min_util > 0

        inject_cpu(net, "s1", make_probe(5, 999, path_util=0))
        sim.run(until=0.21)
        assert (s1.best_hop.read(5), s1.min_util.read(5)) == (best_hop,
                                                              min_util)
        assert dataplanes["s1"].stats.unauthenticated_dropped == 1
        assert [(alert.switch, alert.code) for alert in controller.alerts] == [
            ("s1", AlertCode.DIGEST_MISMATCH_CDP)]


class TestAlertRateLimit:
    def test_alert_budget_enforced(self):
        switch, dataplane = make_dataplane(alert_threshold=3,
                                           alert_window_s=10.0)
        for seq in range(10):
            message = signed_write(switch=switch, seq=seq + 1,
                                   key=K_LOCAL ^ 1)
            switch.process(message, 0, now=0.1)
        assert dataplane.stats.alerts_raised == 3
        assert dataplane.stats.alerts_suppressed == 7

    def test_budget_resets_each_window(self):
        switch, dataplane = make_dataplane(alert_threshold=2,
                                           alert_window_s=1.0)
        for window in range(3):
            for seq in range(5):
                message = signed_write(switch=switch, seq=seq + 1,
                                       key=K_LOCAL ^ 1)
                switch.process(message, 0, now=window * 1.0 + 0.1)
        assert dataplane.stats.alerts_raised == 6

    def test_no_limit_when_disabled(self):
        switch, dataplane = make_dataplane(alert_threshold=None)
        for seq in range(20):
            switch.process(signed_write(switch=switch, seq=seq + 1,
                                        key=K_LOCAL ^ 1), 0)
        assert dataplane.stats.alerts_suppressed == 0


class TestDpDpProtection:
    def probe(self):
        from repro.systems.hula import make_probe
        return make_probe(5, 1, path_util=10)

    def keyed(self, protected=("hula_probe",)):
        switch = DataplaneSwitch("s1", num_ports=4)
        dataplane = P4AuthDataplane(
            switch, K_SEED,
            config=P4AuthConfig(protected_headers=set(protected)))
        # An app stage that forwards probes from port 1 to port 2.
        switch.pipeline.add_stage(
            "app", lambda ctx: ctx.emit(2) if ctx.packet.has("hula_probe")
            else None)
        dataplane.install()
        dataplane.keys.install_at(1, 0x1111, 0)
        dataplane.keys.install_at(2, 0x2222, 0)
        return switch, dataplane

    def test_sign_stage_adds_header_on_keyed_egress(self):
        switch, dataplane = self.keyed()
        # Build a second switch to verify against; simpler: verify digest
        # with the known egress key.
        probe = self.probe()
        # Ingress via CPU-less edge: use port 3 (no key).
        switch.keys_unused = None
        actions = switch.process(probe, 3)
        emits = [a for a in actions if isinstance(a, Emit)]
        assert emits
        out = emits[0].packet
        assert out.has(P4AUTH)
        assert out.get(P4AUTH)["hdrType"] == HdrType.DP_FEEDBACK
        assert DigestEngine().verify(0x2222, out)
        assert dataplane.stats.feedback_signed == 1

    def test_unauthenticated_probe_on_keyed_port_dropped(self):
        switch, dataplane = self.keyed()
        actions = switch.process(self.probe(), 1)
        assert any(isinstance(a, Drop) for a in actions)
        assert dataplane.stats.digest_fail_dpdp == 1
        alerts = [a for a in actions if isinstance(a, ToController)]
        assert alerts  # alert raised toward the controller

    def test_valid_probe_verified_and_resigned(self):
        switch, dataplane = self.keyed()
        probe = self.probe()
        from repro.core.constants import P4AUTH_HEADER
        # The sender tags the key version it signed with; version
        # counters advance in lockstep because every exchange installs
        # exactly once at both endpoints.
        probe.push(P4AUTH, P4AUTH_HEADER.instantiate(
            hdrType=int(HdrType.DP_FEEDBACK),
            keyVer=dataplane.keys.active_version(1)))
        DigestEngine().sign(0x1111, probe)
        actions = switch.process(probe, 1)
        emits = [a for a in actions if isinstance(a, Emit)]
        assert emits
        assert DigestEngine().verify(0x2222, emits[0].packet)
        assert dataplane.stats.feedback_verified == 1

    def test_tampered_probe_dropped(self):
        switch, dataplane = self.keyed()
        probe = self.probe()
        from repro.core.constants import P4AUTH_HEADER
        probe.push(P4AUTH, P4AUTH_HEADER.instantiate(
            hdrType=int(HdrType.DP_FEEDBACK),
            keyVer=dataplane.keys.active_version(1)))
        DigestEngine().sign(0x1111, probe)
        probe.get("hula_probe")["path_util"] = 99  # MitM tamper
        actions = switch.process(probe, 1)
        assert any(isinstance(a, Drop) for a in actions)
        assert dataplane.stats.digest_fail_dpdp == 1

    def test_header_stripped_on_unkeyed_egress(self):
        switch, dataplane = self.keyed()
        # Forward from keyed port 1 out to unkeyed port via app stage?
        # The app stage sends to port 2 (keyed); instead test the sign
        # stage directly with an emit to the unkeyed port 3.
        switch2 = DataplaneSwitch("s2", num_ports=4)
        dataplane2 = P4AuthDataplane(
            switch2, K_SEED,
            config=P4AuthConfig(protected_headers={"hula_probe"}))
        switch2.pipeline.add_stage("app", lambda ctx: ctx.emit(3))
        dataplane2.install()
        dataplane2.keys.install_at(1, 0x1111, 0)
        probe = self.probe()
        from repro.core.constants import P4AUTH_HEADER
        probe.push(P4AUTH, P4AUTH_HEADER.instantiate(
            hdrType=int(HdrType.DP_FEEDBACK),
            keyVer=dataplane2.keys.active_version(1)))
        DigestEngine().sign(0x1111, probe)
        actions = switch2.process(probe, 1)
        emits = [a for a in actions if isinstance(a, Emit)]
        assert emits and not emits[0].packet.has(P4AUTH)

    def test_unprotected_traffic_unaffected(self):
        switch, dataplane = self.keyed(protected=())
        probe = self.probe()
        actions = switch.process(probe, 1)
        emits = [a for a in actions if isinstance(a, Emit)]
        assert emits and not emits[0].packet.has(P4AUTH)


class TestUnwatchedBypass:
    """A frame with neither a P4Auth nor a protected header crosses both
    stages untouched; protected traffic on the same path is not."""

    def switch_pair(self):
        def forward(ctx):
            ctx.emit(2)

        plain = DataplaneSwitch("plain", num_ports=4)
        plain.pipeline.add_stage("app", forward)
        switch = DataplaneSwitch("s1", num_ports=4)
        switch.pipeline.add_stage("app", forward)
        dataplane = P4AuthDataplane(
            switch, K_SEED,
            config=P4AuthConfig(protected_headers={"hula_probe"})).install()
        dataplane.keys.install_at(1, 0x1111, 0)
        dataplane.keys.install_at(2, 0x2222, 0)
        return plain, switch, dataplane

    def test_data_frame_leaves_as_from_a_plain_switch(self):
        from repro.systems.hula import make_data_packet
        plain, switch, dataplane = self.switch_pair()
        invocations = switch.hash.invocations
        [out] = switch.process(make_data_packet(5, flow_id=7, seq=1), 1)
        [expected] = plain.process(make_data_packet(5, flow_id=7, seq=1), 1)
        assert isinstance(out, Emit) and out.port == 2
        assert switch.hash.invocations == invocations
        assert not out.packet.has(P4AUTH)
        assert "p4auth_signed" not in out.packet.metadata
        assert out.packet.serialize() == expected.packet.serialize()
        assert dataplane.stats.feedback_signed == 0

    def test_probe_on_the_same_path_is_verified_and_signed(self):
        from repro.core.constants import P4AUTH_HEADER
        from repro.systems.hula import make_probe
        _plain, switch, dataplane = self.switch_pair()
        probe = make_probe(5, 1, path_util=10)
        probe.push(P4AUTH, P4AUTH_HEADER.instantiate(
            hdrType=int(HdrType.DP_FEEDBACK),
            keyVer=dataplane.keys.active_version(1)))
        DigestEngine().sign(0x1111, probe)
        invocations = switch.hash.invocations
        [out] = switch.process(probe, 1)
        assert isinstance(out, Emit) and out.port == 2
        assert switch.hash.invocations > invocations
        assert DigestEngine().verify(0x2222, out.packet)
        assert dataplane.stats.feedback_verified == 1
        assert dataplane.stats.feedback_signed == 1

    def test_protected_headers_are_frozen_at_construction(self):
        config = P4AuthConfig(protected_headers={"x"})
        assert config.protected_headers == frozenset({"x"})
        assert isinstance(config.protected_headers, frozenset)
        assert isinstance(P4AuthConfig().protected_headers, frozenset)
