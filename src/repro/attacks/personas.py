"""First-class attacker personas: composable, seeded, declarative.

The attacks battery models each of the paper's point adversaries (§II-A,
§VIII) as a hand-wired object inside one experiment.  This module lifts
them into *personas*: frozen :class:`PersonaSpec` components — pure
data — that a runner turns into live adversaries with a uniform
lifecycle::

    persona = build_persona(PersonaSpec(kind="dos-flooder", rate_hz=400))
    persona.arm(world)       # install taps / timers against a live world
    ...
    persona.disarm()         # withdraw cleanly
    persona.outcome()        # AdversaryStats-based outcome record

A persona is not a class of its own: it is one :class:`Persona` whose
``kind`` selects a row of the kind table :data:`_ARMERS` — six short
functions, each composing the point adversaries of this package against
the world and documenting the paper surface it exercises.

Every persona is seeded (same spec + same world seed → byte-identical
injected traffic) and reports a :class:`PersonaOutcome` built on the
shared :class:`~repro.attacks.base.AdversaryStats` shape, so a persona ×
system × load sweep (the ``persona_matrix`` experiment) can compare
reach, detection, and DoS behaviour across the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, List, Optional, Set

from repro.attacks.base import (
    Adversary,
    AdversaryStats,
    PacedInjector,
    reg_op_type,
)
from repro.attacks.bruteforce import DigestBruteForcer
from repro.attacks.control_plane import (
    DosFlooder,
    RegisterRequestTamperer,
    RegisterResponseTamperer,
    ReplayAttacker,
)
from repro.attacks.link import ProbeFieldTamperer
from repro.core.constants import REG_OP, RegOpType


@dataclass(frozen=True)
class PersonaSpec:
    """One attacker persona as pure data (frozen, JSONable).

    Declarative on purpose: a spec carries parameters, never callables,
    so it can ride inside a sweep grid or a cache key.  ``seed`` feeds
    every random decision the persona makes; identical specs against
    identical worlds inject byte-identical traffic.
    """

    kind: str
    #: Injection/tamper rate where the persona is rate-driven
    #: (replay-flooder, digest-bruteforcer, dos-flooder).
    rate_hz: float = 200.0
    #: PRNG seed for forged values/digests.
    seed: int = 0xAD5EED
    #: Value transform for the C-DP injector: ``v -> v ^ xor_mask``.
    xor_mask: int = 0xDEAD
    #: Forged field value for the DP-DP probe tamperer.
    probe_value: int = 2

    def validate(self) -> None:
        if self.kind not in PERSONA_KINDS:
            raise ValueError(f"unknown persona kind {self.kind!r} "
                             f"(expected one of {PERSONA_KINDS})")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class PersonaWorld:
    """Everything a persona may touch when armed.

    The runner (experiment, chaos scenario, test) builds one of these
    around a live deployment; personas only ever reach the world through
    it, which keeps arm/disarm symmetric and auditable.
    """

    sim: object
    net: object
    controller: object
    switch_name: str
    dataplane: object
    #: The C-DP-mapped register the control loop writes (attack target).
    target_register: str
    control_channel: object
    #: How long the persona should stay active once armed (bounds the
    #: schedules of the timer-driven personas).
    duration_s: float = 1.0
    #: The DP-DP link carrying in-network feedback, if the world has one.
    dp_link: Optional[object] = None
    #: Feedback header/field the DP-DP MitM rewrites, if any.
    probe_header: Optional[str] = None
    probe_field: Optional[str] = None

    def target_reg_id(self) -> int:
        return self.net.switch(self.switch_name).registers.id_of(
            self.target_register)


@dataclass
class PersonaOutcome:
    """Shared outcome record: the persona's reach, in AdversaryStats form."""

    kind: str
    armed_at_s: float
    disarmed_at_s: float
    stats: AdversaryStats = field(default_factory=AdversaryStats)
    #: Persona-specific extras (attempts, replays, etc.).
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "armed_at_s": self.armed_at_s,
            "disarmed_at_s": self.disarmed_at_s,
            **vars(self.stats),
            **self.extra,
        }


class Persona:
    """One armable adversary: a spec, plus whatever arming it set up.

    ``arm(world)`` runs the kind's row of :data:`_ARMERS`, which hands
    every :class:`~repro.attacks.base.Adversary` it builds to
    :meth:`attach` and everything else it starts (a timer, a hook) to
    :meth:`undo`.  ``disarm()`` detaches every adversary and runs every
    undo: from that instant the persona taps nothing, no frame it
    scheduled reaches the switch, and ``outcome()`` stops moving.
    """

    def __init__(self, spec: PersonaSpec):
        spec.validate()
        self.spec = spec
        self.world: Optional[PersonaWorld] = None
        self.armed = False
        self.armed_at_s = -1.0
        self.disarmed_at_s = -1.0
        self.adversaries: List[Adversary] = []
        #: Kind-specific outcome keys (``surface_reachable``, ...).
        self.extra: Dict[str, float] = {}
        self._undo: List[Callable[[], None]] = []

    def arm(self, world: PersonaWorld) -> "Persona":
        if self.armed:
            raise RuntimeError(f"{self.spec.kind} persona is already armed")
        self.world = world
        self.armed = True
        self.armed_at_s = world.sim.now
        self.disarmed_at_s = -1.0
        self.adversaries, self.extra = [], {}
        _ARMERS[self.spec.kind](self, world)
        return self

    def attach(self, adversary: Adversary, channel=None) -> Adversary:
        """Own ``adversary`` (its stats count, disarm detaches it) and
        tap ``channel`` with it, if one is given."""
        self.adversaries.append(adversary)
        if channel is not None:
            adversary.attach(channel)
        return adversary

    def undo(self, withdraw: Callable[[], None]) -> None:
        """Register a callable that ``disarm()`` runs once."""
        self._undo.append(withdraw)

    def disarm(self) -> None:
        if not self.armed:
            return
        self.armed = False
        self.disarmed_at_s = self.world.sim.now
        for adversary in self.adversaries:
            adversary.detach_all()
        for withdraw in self._undo:
            withdraw()
        self._undo = []

    def outcome(self) -> PersonaOutcome:
        now = self.world.sim.now if self.world is not None else -1.0
        total = AdversaryStats()
        for adversary in self.adversaries:
            for name, value in vars(adversary.stats).items():
                setattr(total, name, getattr(total, name) + value)
        return PersonaOutcome(
            kind=self.spec.kind,
            armed_at_s=self.armed_at_s,
            disarmed_at_s=(self.disarmed_at_s if self.disarmed_at_s >= 0
                           else now),
            stats=total,
            extra=dict(self.extra),
        )


def _arm_switch_os_injector(persona: Persona, world: PersonaWorld) -> None:
    """Compromised switch OS (C-DP), the §II-A malicious preloaded
    library: tampers write requests *and* read responses of the target
    register (``v ^ xor_mask``) on the world's control channel."""
    reg_id = world.target_reg_id()
    mask = persona.spec.xor_mask
    size = (world.net.switch(world.switch_name)
            .registers.get(world.target_register).size)
    persona.attach(
        RegisterRequestTamperer(reg_id, transform=lambda v: v ^ mask),
        world.control_channel)
    persona.attach(
        RegisterResponseTamperer([(reg_id, index) for index in range(size)],
                                 transform=lambda v: v ^ mask),
        world.control_channel)


def _arm_probe_mitm(persona: Persona, world: PersonaWorld) -> None:
    """In-path MitM on DP-DP feedback probes (Attack 2).

    A world with no feedback link or probe header exposes no surface and
    arming is a no-op — that asymmetry is itself a measured result of the
    matrix, not an error.
    """
    reachable = world.dp_link is not None and world.probe_header is not None
    persona.extra["surface_reachable"] = 1.0 if reachable else 0.0
    if reachable:
        persona.attach(
            ProbeFieldTamperer(world.probe_header,
                               world.probe_field or "path_util",
                               persona.spec.probe_value),
            world.dp_link)


def _arm_replay_flooder(persona: Persona, world: PersonaWorld) -> None:
    """Records validly-signed writes and re-injects them, round-robin,
    at ``rate_hz`` (§VIII).  Replays carry a bit-for-bit valid digest, so
    only the sequence-number defense catches them."""
    recorder = persona.attach(
        ReplayAttacker(lambda p: reg_op_type(p) == RegOpType.WRITE_REQ),
        world.control_channel)
    cursor = count()

    def next_replay():
        recordings = recorder.recordings
        if not recordings:
            return None
        return recordings[next(cursor) % len(recordings)].copy()

    pacer = PacedInjector(world.net, world.switch_name, persona.spec.rate_hz,
                          next_replay, recorder.stats)
    # Give the recorder a moment to capture live traffic, then flood.
    pacer.start(world.duration_s, delay_s=min(0.05, world.duration_s / 4))
    persona.undo(pacer.stop)


#: Replays the rollover-racer fires per observed key installation.
_RACE_BURST = 4


def _arm_rollover_racer(persona: Persona, world: PersonaWorld) -> None:
    """Replays the latest recorded register ops the instant a new local
    key installs — the narrow race where a stale-keyed or stale-sequence
    message is most plausible."""
    recorder = persona.attach(ReplayAttacker(lambda p: p.has(REG_OP)),
                              world.control_channel)
    persona.extra["rollovers_raced"] = 0.0

    def on_key_installed(_version: int, _now: float) -> None:
        persona.extra["rollovers_raced"] += 1
        for packet in recorder.recordings[-_RACE_BURST:]:
            recorder.inject(world.net, world.switch_name, packet.copy())

    hooks = world.dataplane.on_local_key_installed
    hooks.append(on_key_installed)
    persona.undo(lambda: hooks.remove(on_key_installed))


def _arm_digest_bruteforcer(persona: Persona, world: PersonaWorld) -> None:
    """Forges one write under ``rate_hz * duration_s`` guessed digests
    (§VIII), evenly spaced and all queued at arm time.  Every wrong guess
    is a digest failure at the data plane — slow and loud."""
    forcer = persona.attach(DigestBruteForcer(
        world.net, world.switch_name, world.target_reg_id(), index=0,
        value=persona.spec.xor_mask, seed=persona.spec.seed))
    forcer.attempt(max(1, int(persona.spec.rate_hz * world.duration_s)),
                   seq_num=1, spacing_s=1.0 / persona.spec.rate_hz)

    def withdraw() -> None:
        forcer.stop()
        persona.extra["attempts"] = float(forcer.attempts)

    persona.extra["attempts"] = float(forcer.attempts)
    persona.undo(withdraw)


def _arm_dos_flooder(persona: Persona, world: PersonaWorld) -> None:
    """Floods forged requests to trip the alert rate limiter (§VIII)."""
    flooder = persona.attach(DosFlooder(
        world.net, world.switch_name, world.target_reg_id(),
        rate_hz=persona.spec.rate_hz, seed=persona.spec.seed))
    flooder.start(world.duration_s)
    persona.undo(flooder.stop)


#: The kind table: what arming each persona kind means.
_ARMERS: Dict[str, Callable[[Persona, PersonaWorld], None]] = {
    "switch-os-injector": _arm_switch_os_injector,
    "probe-mitm": _arm_probe_mitm,
    "replay-flooder": _arm_replay_flooder,
    "rollover-racer": _arm_rollover_racer,
    "digest-bruteforcer": _arm_digest_bruteforcer,
    "dos-flooder": _arm_dos_flooder,
}

#: Every persona kind :func:`build_persona` knows how to instantiate.
PERSONA_KINDS = tuple(_ARMERS)


def build_persona(spec: PersonaSpec) -> Persona:
    """Instantiate the runtime persona for a spec."""
    return Persona(spec)


# ---------------------------------------------------------------------------
# shared ground truth + wire capture
# ---------------------------------------------------------------------------


class GroundTruthSampler:
    """Samples a target register straight out of the simulated ASIC.

    The chaos suite's zero-forged-writes invariant, factored out for
    reuse across the persona matrix: a forged write shows up in these
    samples even if every counter lied.  ``allowed`` is held by
    reference, so callers may extend it (e.g. a post-chaos clean write)
    after sampling starts.
    """

    #: The register slot sampled, and the virtual seconds between samples.
    INDEX = 0
    PERIOD_S = 0.05

    def __init__(self, sim, switch, reg_name: str, allowed: Set[int]):
        self.sim = sim
        self.allowed = allowed
        self.samples: List[int] = []
        self._register = switch.registers.get(reg_name)
        self._until_s = 0.0

    def start(self, until_s: float) -> None:
        """Begin periodic sampling, running until virtual ``until_s``."""
        self._until_s = until_s
        self._sample()

    def _sample(self) -> None:
        self.samples.append(self._register.read(self.INDEX))
        if self.sim.now < self._until_s:
            self.sim.schedule(self.PERIOD_S, self._sample)

    def forged(self) -> List[int]:
        """Every sampled value outside the allowed set."""
        return [value for value in self.samples
                if value not in self.allowed]


__all__ = [
    "PERSONA_KINDS",
    "GroundTruthSampler",
    "Persona",
    "PersonaOutcome",
    "PersonaSpec",
    "PersonaWorld",
    "build_persona",
]
