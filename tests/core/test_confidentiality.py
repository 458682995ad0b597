"""The §XI confidentiality extension: session keys + encrypted reg-ops
(and DP-DP feedback, which is authenticated but never encrypted)."""

from repro.attacks.base import Eavesdropper
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.confidentiality import (
    derive_session_keys,
    encrypt_value,
    request_nonce,
    response_nonce,
)
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.net.topology import linear_chain
from repro.systems.int_telemetry import (
    IntCollector,
    IntConfig,
    IntTelemetryDataplane,
    make_int_probe,
    parse_records,
)


class TestSessionKeyDerivation:
    def test_family_members_differ(self):
        keys = derive_session_keys(0xABCDEF)
        assert len({keys.auth, keys.encryption, keys.nonce_base}) == 3

    def test_same_master_same_family(self):
        assert derive_session_keys(7) == derive_session_keys(7)

    def test_different_master_different_family(self):
        assert derive_session_keys(7) != derive_session_keys(8)

    def test_request_response_nonces_never_collide(self):
        keys = derive_session_keys(0x1234)
        request_nonces = {request_nonce(keys, seq) for seq in range(100)}
        response_nonces = {response_nonce(keys, seq) for seq in range(100)}
        assert not request_nonces & response_nonces

    def test_encrypt_value_involutive(self):
        keys = derive_session_keys(0x99)
        for seq in (1, 1000, 2**31):
            for response in (False, True):
                cipher = encrypt_value(keys, seq, 0xDEADBEEF, response)
                assert cipher != 0xDEADBEEF
                assert encrypt_value(keys, seq, cipher, response) == 0xDEADBEEF


def encrypted_deployment():
    """One switch on its default config; only the controller encrypts."""
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("secret_state", 64, 8)
    dataplane = P4AuthDataplane(switch, k_seed=0xE2C).install()
    dataplane.map_register("secret_state")
    controller = P4AuthController(net, encrypt_regops=True)
    controller.provision(dataplane)
    controller.kmp.local_key_init("s1")
    sim.run(until=0.1)
    return sim, net, switch, dataplane, controller


class TestEncryptedRegOps:
    def test_roundtrip(self):
        sim, net, switch, dataplane, controller = encrypted_deployment()
        results = []
        controller.write_register("s1", "secret_state", 2, 0xCAFE,
                                  lambda ok, v: results.append(("w", ok, v)))
        sim.run(until=1.0)
        controller.read_register("s1", "secret_state", 2,
                                 lambda ok, v: results.append(("r", ok, v)))
        sim.run(until=2.0)
        assert results == [("w", True, 0xCAFE), ("r", True, 0xCAFE)]
        # The data plane applied the true plaintext.
        assert switch.registers.get("secret_state").read(2) == 0xCAFE

    def test_eavesdropper_sees_only_ciphertext(self):
        """The controller knob alone hides both directions: a switch on
        its default config answers a flagged request in ciphertext, so
        neither the write's ACK nor the read's reply carries the stored
        value up the channel."""
        sim, net, switch, dataplane, controller = encrypted_deployment()
        crossed = []

        def spy(packet, direction):
            if packet.has("reg_op"):
                crossed.append((direction, packet.get("reg_op")["value"]))
            return packet

        net.control_channels["s1"].add_tap(spy)
        results = []
        controller.write_register("s1", "secret_state", 0, 0x5EC12E7,
                                  lambda ok, v: results.append((ok, v)))
        sim.run(until=1.0)
        controller.read_register("s1", "secret_state", 0,
                                 lambda ok, v: results.append((ok, v)))
        sim.run(until=2.0)
        assert results == [(True, 0x5EC12E7), (True, 0x5EC12E7)]
        assert sorted({direction for direction, _ in crossed}) == [
            "c->dp", "dp->c"]
        assert 0x5EC12E7 not in [value for _, value in crossed]

    def test_plaintext_reply_to_an_encrypted_read_is_a_tamper(self):
        """A faulty switch answers a flagged read in plaintext under a
        valid digest: the controller asked for ciphertext, so it records
        a tamper and the caller hears nothing."""
        sim, net, switch, dataplane, controller = encrypted_deployment()
        switch.registers.get("secret_state").write(1, 0x5EC12E7)
        honest = dataplane._respond_reg
        dataplane._respond_reg = lambda ctx, **reply: honest(
            ctx, **{**reply, "encrypted": False})
        results = []
        controller.read_register("s1", "secret_state", 1,
                                 lambda ok, v: results.append((ok, v)))
        sim.run(until=1.0)
        assert results == []
        assert [(t.switch, t.reason) for t in controller.tamper_events] == [
            ("s1", "register response in the wrong encryption mode")]
        assert controller.stats.acks_received == 0

    def test_request_and_response_ciphertexts_differ(self):
        """Direction-tweaked nonces: even echoing the same value, the
        response ciphertext differs from the request ciphertext."""
        sim, net, switch, dataplane, controller = encrypted_deployment()
        observed = []

        def spy(packet, direction):
            if packet.has("reg_op"):
                observed.append((direction, packet.get("reg_op")["value"]))
            return packet

        net.control_channels["s1"].add_tap(spy)
        controller.write_register("s1", "secret_state", 0, 0x77)
        sim.run(until=1.0)
        down = [v for d, v in observed if d == "c->dp"]
        up = [v for d, v in observed if d == "dp->c"]
        assert down and up and down[0] != up[0]

    def test_tamper_still_detected_before_decrypt(self):
        """Encrypt-then-MAC: flipping ciphertext bits fails the digest;
        nothing is decrypted or applied."""
        sim, net, switch, dataplane, controller = encrypted_deployment()

        def tamper(packet, direction):
            if direction == "c->dp" and packet.has("reg_op"):
                packet.get("reg_op")["value"] ^= 0xFF
            return packet

        net.control_channels["s1"].add_tap(tamper)
        results = []
        controller.write_register("s1", "secret_state", 1, 0x42,
                                  lambda ok, v: results.append(ok))
        sim.run(until=1.0)
        assert results == [False]
        assert switch.registers.get("secret_state").read(1) == 0
        assert dataplane.stats.digest_fail_cdp == 1

    def test_survives_key_rollover(self):
        sim, net, switch, dataplane, controller = encrypted_deployment()
        controller.kmp.local_key_update("s1")
        sim.run(until=1.0)
        results = []
        controller.write_register("s1", "secret_state", 3, 0x1111,
                                  lambda ok, v: results.append(ok))
        sim.run(until=2.0)
        assert results == [True]
        assert switch.registers.get("secret_state").read(3) == 0x1111

    def test_plaintext_mode_unaffected(self, single_switch):
        """Default deployments (no encryption) behave as before."""
        dep = single_switch
        results = []
        dep.controller.write_register("s1", "demo", 0, 0x9,
                                      lambda ok, v: results.append(v))
        dep.run(1.0)
        assert results == [0x9]


def test_dpdp_feedback_payload_crosses_links_in_plaintext():
    """Only C-DP register values can be encrypted: DP-DP feedback (here
    INT records) is authenticated hop by hop, and a link eavesdropper
    reads its payload as sent."""
    hops = 3
    net, extras = linear_chain(hops)
    sim = extras["sim"]
    for index, name in enumerate(extras["switches"], start=1):
        IntTelemetryDataplane(net.switch(name), IntConfig(
            switch_id=index,
            routes={1: 2 if index < hops else None},
            collector_port=2,
            latency_us=lambda now, flow: 33,
        )).install()
    controller = P4AuthController(net)
    for index, name in enumerate(extras["switches"]):
        controller.provision(P4AuthDataplane(
            net.switch(name), k_seed=0x3E7 + index,
            config=P4AuthConfig(protected_headers={"int_probe"})).install())
    controller.kmp.bootstrap_all()
    sim.run(until=1.0)

    spy = Eavesdropper(lambda p: p.has("int_probe"))
    spy.attach(net.link_between("s1", "s2"))
    collector = IntCollector()
    extras["dst"].on_packet = collector.ingest
    start = sim.now
    for index in range(3):
        sim.schedule_at(start + index * 0.005, extras["src"].send,
                        make_int_probe(index))
    sim.run(until=start + 1.0)
    assert spy.stats.recorded == 3
    for packet in spy.recordings:
        assert any(r.switch_id == 1 and r.latency_us == 33
                   for r in parse_records(packet))
    assert len(collector.probes) == 3
