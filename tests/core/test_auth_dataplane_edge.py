"""Edge branches of the data-plane module."""

import pytest

from repro.core.auth_dataplane import (
    P4AuthConfig,
    P4AuthDataplane,
    P4AuthStats,
)
from repro.core.constants import (
    AlertCode,
    HdrType,
    KeyExchType,
    P4AUTH,
)
from repro.core.controller import P4AuthController
from repro.core.digest import DigestEngine
from repro.core.keys import LOCAL_KEY_INDEX
from repro.core.messages import (
    build_adhkd_message,
    build_keyctl_message,
    build_reg_write_request,
)
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import Drop, ToController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator

K_SEED = 0x5EED
K_LOCAL = 0x10CA1


def keyed_dataplane(**config_kwargs):
    switch = DataplaneSwitch("s1", num_ports=4)
    dataplane = P4AuthDataplane(switch, K_SEED,
                                config=P4AuthConfig(**config_kwargs))
    dataplane.install()
    dataplane.keys.install_at(LOCAL_KEY_INDEX, K_LOCAL, 0)
    return switch, dataplane


def alerts_of(actions):
    return [a.packet for a in actions
            if isinstance(a, ToController)
            and a.packet.has(P4AUTH)
            and a.packet.get(P4AUTH)["hdrType"] == HdrType.ALERT]


class TestKeyExchangeEdges:
    def test_port_key_start_invalid_port_alerts(self):
        switch, dataplane = keyed_dataplane()
        message = build_keyctl_message(KeyExchType.PORT_KEY_INIT, 99, 1)
        DigestEngine().sign(K_LOCAL, message)
        actions = switch.process(message, 0)
        assert any(isinstance(a, Drop) for a in actions)
        alert = alerts_of(actions)[0]
        assert alert.get("alert")["code"] == AlertCode.KEY_EXCHANGE_TAMPER

    def test_msg2_without_pending_exchange_alerts(self):
        switch, dataplane = keyed_dataplane()
        message = build_adhkd_message(KeyExchType.ADHKD_MSG2, 1, 2, 1)
        message.get(P4AUTH)["flags"] = 2  # claims a pending port exchange
        DigestEngine().sign(K_LOCAL, message)
        actions = switch.process(message, 0)
        assert any(isinstance(a, Drop) for a in actions)
        assert dataplane.stats.alerts_raised == 1

    def test_unexpected_exchange_type_on_link_dropped(self):
        switch, dataplane = keyed_dataplane()
        dataplane.keys.install_at(1, 0x77, 0)
        message = build_keyctl_message(KeyExchType.PORT_KEY_INIT, 1, 1)
        DigestEngine().sign(0x77, message)
        actions = switch.process(message, 1)
        assert any(isinstance(a, Drop) for a in actions)

    def test_exchange_with_wrong_payload_dropped(self):
        """Structurally invalid: an EAK msgType carrying an ADHKD body."""
        switch, dataplane = keyed_dataplane()
        message = build_adhkd_message(KeyExchType.ADHKD_MSG1, 1, 2, 1)
        message.get(P4AUTH)["msgType"] = int(KeyExchType.EAK_SALT1)
        DigestEngine().sign(K_SEED, message)
        actions = switch.process(message, 0)
        assert any(isinstance(a, Drop) for a in actions)

    @pytest.mark.parametrize("msg_type, port", [
        (KeyExchType.ADHKD_MSG1, 200),  # past p4auth_keys_v0
        (KeyExchType.ADHKD_MSG2, 5),    # past p4auth_pending_r1
        (KeyExchType.ADHKD_MSG2, 255),
    ])
    def test_redirected_leg_for_a_port_the_switch_lacks(self, msg_type, port):
        """``flags`` names the local port of a redirected port-key leg.
        Only a K_local holder can sign one, but an out-of-range port
        must still be an alert and a drop, not an IndexError out of the
        pipeline (the shard-wedge class)."""
        switch, dataplane = keyed_dataplane()
        before = {name: list(switch.registers.get(name).snapshot())
                  for name in switch.registers.names()}
        message = build_adhkd_message(msg_type, 7, 9, seq_num=1)
        message.get(P4AUTH)["flags"] = port
        DigestEngine().sign(K_LOCAL, message)
        actions = switch.process(message, DataplaneSwitch.CPU_PORT)
        drops = [a for a in actions if isinstance(a, Drop)]
        assert [d.reason for d in drops] == [
            f"portKey message for invalid port {port}"]
        (alert,) = alerts_of(actions)
        assert alert.get("alert")["code"] == AlertCode.KEY_EXCHANGE_TAMPER
        assert alert.get("alert")["detail"] == port
        after = {name: list(switch.registers.get(name).snapshot())
                 for name in switch.registers.names()
                 if name not in ("p4auth_dp_seq", "p4auth_alert_count")}
        for name, cells in after.items():
            assert cells == before[name], name

    def test_redirected_leg_for_the_last_port_is_served(self):
        switch, dataplane = keyed_dataplane()
        message = build_adhkd_message(KeyExchType.ADHKD_MSG1, 7, 9, seq_num=1)
        message.get(P4AUTH)["flags"] = switch.num_ports
        DigestEngine().sign(K_LOCAL, message)
        actions = switch.process(message, DataplaneSwitch.CPU_PORT)
        assert not any(isinstance(a, Drop) for a in actions)
        assert dataplane.keys.has_port_key(switch.num_ports)


class TestAlertSigningFallback:
    def test_alert_signed_with_seed_before_any_key(self):
        """Alerts raised during bootstrap fall back to K_seed; the
        controller still authenticates them."""
        sim = EventSimulator()
        net = Network(sim)
        switch = DataplaneSwitch("s1", num_ports=2)
        net.add_switch(switch)
        dataplane = P4AuthDataplane(
            switch, K_SEED,
            config=P4AuthConfig(protected_headers={"hula_probe"})).install()
        dataplane.keys.install_at(1, 0x99, 0)
        controller = P4AuthController(net)
        controller.provision(dataplane)
        # A tampered probe on the keyed port, before K_local exists.
        from repro.systems.hula import make_probe
        node = net.nodes["s1"]
        sim.schedule(0.0, node.receive, make_probe(1, 1), 1)
        sim.run(until=1.0)
        assert len(controller.alerts) == 1
        assert controller.stats.tampered_responses == 0


class TestGuards:
    """Guards whose removal no other test notices."""

    def test_zero_k_seed_is_refused_at_construction(self):
        """Zero means "no key material" to ``_select_key``; a switch
        provisioned with it would verify EAK under a zero key."""
        with pytest.raises(ValueError, match="K_seed must be non-zero"):
            P4AuthDataplane(DataplaneSwitch("s1", num_ports=2), 0)

    def test_out_of_range_ingress_port_never_reaches_the_overlay(self):
        """A P4Auth frame on a port the switch lacks is refused by the
        switch before any stage runs: a ``ValueError`` naming the port,
        not an ``IndexError`` out of the key registers, and nothing
        counted by the overlay."""
        switch, dataplane = keyed_dataplane()
        message = DigestEngine().sign(
            K_LOCAL, build_reg_write_request(1, 0, 0x42, 1))
        port = switch.num_ports + 1
        with pytest.raises(ValueError, match=f"invalid ingress port {port}"):
            switch.process(message, port)
        assert dataplane.stats == P4AuthStats()
        assert switch.packets_processed == 0


class TestSignStageEdges:
    def test_non_protected_emit_to_keyed_port_untouched(self):
        switch, dataplane = keyed_dataplane(
            protected_headers={"hula_probe"})
        dataplane.keys.install_at(2, 0x22, 0)
        switch.pipeline.insert_stage(1, "app", lambda ctx: ctx.emit(2))
        packet = Packet(payload=b"plain data")
        actions = switch.process(packet, 1)
        out = [a for a in actions if not isinstance(a, Drop)][0].packet
        assert not out.has(P4AUTH)

    def test_probe_multicast_each_copy_signed_for_its_port(self):
        from repro.systems.hula import make_probe
        switch, dataplane = keyed_dataplane(
            protected_headers={"hula_probe"})
        dataplane.keys.install_at(2, 0x22, 0)
        dataplane.keys.install_at(3, 0x33, 0)

        def fan(ctx):
            if ctx.packet.has("hula_probe"):
                ctx.emit(2, ctx.packet.copy())
                ctx.emit(3, ctx.packet.copy())

        switch.pipeline.insert_stage(1, "app", fan)
        actions = switch.process(make_probe(1, 1), 4)  # unkeyed ingress
        from repro.dataplane.pipeline import Emit
        emits = {a.port: a.packet for a in actions if isinstance(a, Emit)}
        engine = DigestEngine()
        assert engine.verify(0x22, emits[2])
        assert engine.verify(0x33, emits[3])
        assert not engine.verify(0x22, emits[3])
