"""MitM adversaries from the paper's threat model (§II-A).

Two attachment points mirror Fig 1:

- **compromised switch OS** — taps on a switch's
  :class:`~repro.net.links.ControlChannel`, modeling the LD_PRELOAD-style
  malicious library mangling SDK/driver call arguments between the gRPC
  agent and the ASIC;
- **on-link MitM** — taps on a :class:`~repro.net.links.Link`, modeling a
  neighbor switch whose table rules divert feedback messages through the
  attacker's host.

Every adversary here *modifies, drops, records, or injects*; none of them
hold any P4Auth key, so against P4Auth their best move is guessing a
32-bit digest (see :class:`DigestBruteForcer`).
"""

from repro.attacks.base import Adversary, Eavesdropper, MessageDropper
from repro.attacks.control_plane import (
    RegisterResponseTamperer,
    RegisterRequestTamperer,
    ReplayAttacker,
    DosFlooder,
)
from repro.attacks.link import ProbeFieldTamperer, KeyExchangeTamperer
from repro.attacks.bruteforce import DigestBruteForcer
from repro.attacks.personas import (
    PERSONA_KINDS,
    GroundTruthSampler,
    Persona,
    PersonaOutcome,
    PersonaSpec,
    PersonaWorld,
    build_persona,
)

__all__ = [
    "PERSONA_KINDS",
    "GroundTruthSampler",
    "Persona",
    "PersonaOutcome",
    "PersonaSpec",
    "PersonaWorld",
    "build_persona",
    "Adversary",
    "Eavesdropper",
    "MessageDropper",
    "RegisterResponseTamperer",
    "RegisterRequestTamperer",
    "ReplayAttacker",
    "DosFlooder",
    "ProbeFieldTamperer",
    "KeyExchangeTamperer",
    "DigestBruteForcer",
]
