"""Adversaries at the compromised switch control plane (C-DP threat).

These model the paper's Attack 1 (§II-A): a malicious library between the
gRPC server agent and the SDK/driver alters the arguments of register
read/write calls — equivalently, the PacketOut/PacketIn messages crossing
the switch OS.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.attacks.base import (
    Adversary,
    Eavesdropper,
    PacedInjector,
    forged_write,
    reg_op_type,
)
from repro.core.constants import REG_OP, RegOpType
from repro.crypto.prng import XorShiftPrng
from repro.dataplane.packet import Packet

ValueTransform = Callable[[int], int]


class RegisterResponseTamperer(Adversary):
    """Rewrites the value in register *read responses* (DP -> C).

    The RouteScout attack of Fig 2/Fig 16: inflate the latency the
    controller sees for one path so it shifts traffic to the other.
    ``targets`` is a list of (reg_id, index) pairs to hit; ``transform``
    maps the true value to the forged one.
    """

    def __init__(self, targets: List[Tuple[int, int]],
                 transform: ValueTransform):
        super().__init__("response-tamperer", direction_filter="dp->c")
        self.targets = set(targets)
        self.transform = transform

    def process(self, packet: Packet, direction: str) -> Optional[Packet]:
        if reg_op_type(packet) != RegOpType.ACK:
            return packet
        payload = packet.get(REG_OP)
        if (payload["regId"], payload["index"]) in self.targets:
            payload["value"] = self.transform(payload["value"]) & ((1 << 64) - 1)
            self.stats.modified += 1
        return packet


class RegisterRequestTamperer(Adversary):
    """Rewrites the value (or index) in *write requests* (C -> DP).

    The Blink/SilkRoad-style attack: the controller issues a legitimate
    state update and the switch OS substitutes its own.
    """

    def __init__(self, reg_id: int,
                 transform: ValueTransform,
                 index_transform: Optional[Callable[[int], int]] = None):
        super().__init__("request-tamperer", direction_filter="c->dp")
        self.reg_id = reg_id
        self.transform = transform
        self.index_transform = index_transform

    def process(self, packet: Packet, direction: str) -> Optional[Packet]:
        if reg_op_type(packet) != RegOpType.WRITE_REQ:
            return packet
        payload = packet.get(REG_OP)
        if payload["regId"] != self.reg_id:
            return packet
        payload["value"] = self.transform(payload["value"]) & ((1 << 64) - 1)
        if self.index_transform is not None:
            payload["index"] = self.index_transform(payload["index"])
        self.stats.modified += 1
        return packet


class ReplayAttacker(Eavesdropper):
    """Records matching messages in flight, to re-inject them later (§VIII).

    Against P4Auth the replayed message carries a *valid* digest (the
    attacker replays it bit-for-bit), so only the sequence-number defense
    catches it.
    """

    def __init__(self, predicate: Callable[[Packet], bool],
                 direction_filter: str = "c->dp"):
        super().__init__(predicate, direction_filter)
        self.name = "replayer"

    def replay(self, network, switch_name: str,
               count: Optional[int] = None) -> int:
        """Re-inject recorded messages into the switch's CPU port.

        The attacker sits below the controller, so injection bypasses the
        controller but still traverses the data plane's checks.
        """
        replayed = self.recordings[:count]
        for packet in replayed:
            self.inject(network, switch_name, packet.copy())
        return len(replayed)


class DosFlooder(Adversary):
    """Floods forged register requests at a data plane (§VIII DoS).

    Each forged request carries a random digest; the data plane answers
    every one with a nAck/alert unless its alert rate limit engages —
    which is precisely the mitigation the paper prescribes and the DoS
    benchmark measures.
    """

    def __init__(self, network, switch_name: str, reg_id: int,
                 rate_hz: float = 1000.0, seed: int = 0xBADC0DE):
        super().__init__("dos-flooder")
        self.reg_id = reg_id
        self._prng = XorShiftPrng(seed)
        self._pacer = PacedInjector(network, switch_name, rate_hz,
                                    self._forge, self.stats)

    def _forge(self) -> Packet:
        bits = self._prng.next_bits
        return forged_write(self.reg_id, 0, value=bits(32), seq_num=bits(31),
                            digest=bits(32))

    def start(self, duration_s: float) -> None:
        """Begin the flood, or extend a running one to ``duration_s``
        from now (see :meth:`PacedInjector.start`)."""
        self._pacer.start(duration_s)

    def stop(self) -> None:
        self._pacer.stop()

    @property
    def sent(self) -> int:
        """Forged requests injected so far (alias of ``stats.injected``)."""
        return self.stats.injected
