"""Persona lifecycle, seeded byte-determinism, and ground truth.

The persona contract: frozen specs build live adversaries with a
uniform ``arm(world)/disarm()`` lifecycle; identical (spec, world) seeds
inject byte-identical wire traffic; and no persona ever lands a forged
write in the target register.
"""

import pytest

from repro.attacks.personas import (
    PERSONA_KINDS,
    GroundTruthSampler,
    PersonaSpec,
    PersonaWorld,
    build_persona,
)
from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator

class WireRecorder:
    """Records the serialized bytes of packets arriving at one switch's
    CPU port.

    Wraps the switch node's ``receive`` so injected traffic, which enters
    via the CPU port and never crosses a tappable channel, is captured
    too.  Two runs with identical seeds must produce identical ``frames``
    lists (the persona byte-determinism contract).
    """

    def __init__(self, net, switch_name):
        self._node = net.nodes[switch_name]
        self._original = self._node.receive
        self.frames = []

        def recording(packet, ingress_port):
            if ingress_port == DataplaneSwitch.CPU_PORT:
                self.frames.append(packet.serialize())
            self._original(packet, ingress_port)

        self._node.receive = recording

    def restore(self):
        self._node.receive = self._original


#: Personas that actively inject packets (vs. tamper in-path only).
INJECTING_KINDS = ("replay-flooder", "digest-bruteforcer", "dos-flooder")


def _deployment(seed=5):
    """One keyed switch + controller with a C-DP-mapped demo register."""
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=4, seed=seed)
    net.add_switch(switch)
    switch.registers.define("demo", 64, 8)
    dataplane = P4AuthDataplane(switch, k_seed=0xBEE0 + seed).install()
    dataplane.map_register("demo")
    controller = P4AuthController(net)
    controller.provision(dataplane)
    controller.kmp.bootstrap_all()
    sim.run(until=0.3)
    return sim, net, controller, dataplane


def _world(sim, net, controller, dataplane, duration=0.6):
    return PersonaWorld(
        sim=sim, net=net, controller=controller, switch_name="s1",
        dataplane=dataplane, target_register="demo",
        control_channel=net.control_channels["s1"], duration_s=duration)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown persona kind"):
            PersonaSpec(kind="evil-twin").validate()

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_hz"):
            PersonaSpec(kind="dos-flooder", rate_hz=0.0).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            PersonaSpec(kind="dos-flooder", seed=-1).validate()

    def test_spec_is_frozen_pure_data(self):
        spec = PersonaSpec(kind="probe-mitm")
        with pytest.raises(Exception):
            spec.rate_hz = 9.0
        assert set(spec.as_dict()) == {
            "kind", "rate_hz", "seed", "xor_mask", "probe_value"}

    def test_build_persona_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            build_persona(PersonaSpec(kind="nope"))


class TestLifecycle:
    @pytest.mark.parametrize("kind", PERSONA_KINDS)
    def test_arm_disarm_symmetric(self, kind):
        sim, net, controller, dataplane = _deployment()
        recorder = WireRecorder(net, "s1")
        persona = build_persona(PersonaSpec(kind=kind, rate_hz=50.0))
        assert not persona.armed
        persona.arm(_world(sim, net, controller, dataplane, duration=0.6))
        assert persona.armed
        assert persona.armed_at_s == sim.now
        with pytest.raises(RuntimeError, match="already armed"):
            persona.arm(_world(sim, net, controller, dataplane))
        # One write, then one key rollover, both settled before the
        # disarm, give the recording kinds something to replay.
        controller.write_register("s1", "demo", 0, 0x77)
        sim.run(until=sim.now + 0.05)
        controller.kmp.local_key_update("s1")
        sim.run(until=sim.now + 0.05)
        persona.disarm()
        assert not persona.armed
        assert persona.disarmed_at_s >= persona.armed_at_s
        persona.disarm()  # idempotent
        # disarm() withdraws what arm() scheduled: the controller is
        # silent from here on, so nothing may reach s1's CPU port.
        frames = len(recorder.frames)
        injected = persona.outcome().stats.injected
        sim.run(until=sim.now + 0.9)
        assert len(recorder.frames) == frames
        assert persona.outcome().stats.injected == injected
        recorder.restore()

    @pytest.mark.parametrize("kind", PERSONA_KINDS)
    def test_outcome_record_shape(self, kind):
        sim, net, controller, dataplane = _deployment()
        persona = build_persona(PersonaSpec(kind=kind, rate_hz=50.0))
        persona.arm(_world(sim, net, controller, dataplane))
        sim.run(until=sim.now + 0.1)
        persona.disarm()
        record = persona.outcome().as_dict()
        assert record["kind"] == kind
        for key in ("armed_at_s", "disarmed_at_s", "seen", "modified",
                    "dropped", "injected", "recorded"):
            assert key in record

    def test_injector_taps_withdraw_on_disarm(self):
        sim, net, controller, dataplane = _deployment()
        channel = net.control_channels["s1"]
        before = len(channel.taps)
        persona = build_persona(PersonaSpec(kind="switch-os-injector"))
        persona.arm(_world(sim, net, controller, dataplane))
        assert len(channel.taps) == before + 2
        persona.disarm()
        assert len(channel.taps) == before

    def test_rollover_racer_unhooks_on_disarm(self):
        sim, net, controller, dataplane = _deployment()
        before = len(dataplane.on_local_key_installed)
        persona = build_persona(PersonaSpec(kind="rollover-racer"))
        persona.arm(_world(sim, net, controller, dataplane))
        assert len(dataplane.on_local_key_installed) == before + 1
        persona.disarm()
        assert len(dataplane.on_local_key_installed) == before

    def test_probe_mitm_is_noop_without_feedback_link(self):
        sim, net, controller, dataplane = _deployment()
        persona = build_persona(PersonaSpec(kind="probe-mitm"))
        persona.arm(_world(sim, net, controller, dataplane))
        persona.disarm()
        assert persona.outcome().extra["surface_reachable"] == 0.0


def _recorded_run(kind, seed):
    """Drive one persona against a fresh world; capture CPU-port bytes.

    A small authenticated C-DP write loop gives the replay personas
    material to record, and a mid-run key rollover gives the
    rollover-racer its trigger.
    """
    sim, net, controller, dataplane = _deployment(seed=5)
    recorder = WireRecorder(net, "s1")
    issued = [0x100 + k for k in range(12)]
    allowed = {0} | set(issued)

    def tick(k=0):
        if k >= len(issued):
            return
        controller.write_register("s1", "demo", k % 8, issued[k])
        sim.schedule(0.03, tick, k + 1)

    sim.schedule(0.0, tick)
    controller.kmp.schedule_rollover(0.2)
    sampler = GroundTruthSampler(sim, net.switch("s1"), "demo", allowed)
    sim.schedule(0.01, sampler.start, sim.now + 0.75)

    persona = build_persona(PersonaSpec(kind=kind, rate_hz=150.0, seed=seed))
    world = _world(sim, net, controller, dataplane, duration=0.6)
    sim.schedule(0.05, persona.arm, world)
    sim.run(until=sim.now + 0.75)
    persona.disarm()
    recorder.restore()
    return recorder.frames, persona.outcome(), sampler.forged()


class TestSeededDeterminism:
    @pytest.mark.parametrize("kind", PERSONA_KINDS)
    def test_same_seed_same_wire_bytes(self, kind):
        frames_a, outcome_a, _ = _recorded_run(kind, seed=11)
        frames_b, outcome_b, _ = _recorded_run(kind, seed=11)
        assert frames_a == frames_b
        assert frames_a, "no CPU-port traffic captured at all"
        assert outcome_a.as_dict() == outcome_b.as_dict()

    @pytest.mark.parametrize("kind", INJECTING_KINDS)
    def test_injecting_personas_actually_inject(self, kind):
        _frames, outcome, _ = _recorded_run(kind, seed=11)
        assert outcome.stats.injected > 0


class TestGroundTruth:
    @pytest.mark.parametrize("kind", PERSONA_KINDS)
    def test_no_forged_write_ever_lands(self, kind):
        _frames, _outcome, forged = _recorded_run(kind, seed=11)
        assert forged == []
