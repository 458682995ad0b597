"""Adversary base machinery: tap lifecycle, CPU-port injection, bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.constants import P4AUTH, REG_OP
from repro.core.messages import build_reg_write_request
from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.net.simulator import EventHandle


@dataclass
class AdversaryStats:
    seen: int = 0
    modified: int = 0
    dropped: int = 0
    injected: int = 0
    recorded: int = 0


def reg_op_type(packet: Packet) -> Optional[int]:
    """Message type of a register-op packet, plain (``ctl``) or P4Auth
    framed; None for anything that is not a register op."""
    if packet.has(REG_OP):
        for framing in ("ctl", P4AUTH):
            if packet.has(framing):
                return packet.get(framing)["msgType"]
    return None


def forged_write(reg_id: int, index: int, value: int, seq_num: int,
                 digest: int) -> Packet:
    """A P4Auth write request under a *guessed* digest: the most a
    keyless adversary can forge."""
    forged = build_reg_write_request(reg_id, index, value, seq_num)
    forged.get(P4AUTH)["digest"] = digest
    return forged


def inject_cpu(net, switch: str, packet: Packet,
               delay_s: float = 0.0) -> EventHandle:
    """Hand ``packet`` to ``switch``'s CPU port after ``delay_s``.

    The one way an adversary below the controller injects: the frame
    bypasses the controller but still traverses the data plane's checks.
    Cancelling the returned handle withdraws a frame not yet delivered.
    """
    return net.sim.schedule_cancellable(
        delay_s, net.nodes[switch].receive, packet, DataplaneSwitch.CPU_PORT)


class PacedInjector:
    """Feeds ``next_packet()`` into a switch's CPU port at ``rate_hz``.

    One timer chain at most: :meth:`start` on a running injector only
    extends its deadline (a second chain would double the rate), and
    :meth:`stop` cancels the pending tick, so nothing fires afterwards.
    Each injected frame counts in ``stats.injected``; a tick whose
    ``next_packet()`` is None injects nothing and keeps the pace.
    """

    def __init__(self, net, switch: str, rate_hz: float,
                 next_packet: Callable[[], Optional[Packet]],
                 stats: AdversaryStats):
        self.net = net
        self.switch = switch
        self.rate_hz = rate_hz
        self.next_packet = next_packet
        self.stats = stats
        self._deadline = 0.0
        self._timer: Optional[EventHandle] = None

    def start(self, duration_s: float, delay_s: float = 0.0) -> None:
        """Inject until ``now + duration_s``, from ``now + delay_s`` on."""
        deadline = self.net.sim.now + duration_s
        if self._timer is not None:
            self._deadline = max(self._deadline, deadline)
            return
        self._deadline = deadline
        if delay_s > 0:
            self._timer = self.net.sim.schedule_cancellable(delay_s,
                                                            self._tick)
        else:
            self._tick()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        sim = self.net.sim
        if sim.now >= self._deadline:
            self._timer = None
            return
        packet = self.next_packet()
        if packet is not None:
            inject_cpu(self.net, self.switch, packet)
            self.stats.injected += 1
        self._timer = sim.schedule_cancellable(1.0 / self.rate_hz, self._tick)


class Adversary:
    """Base class: attach to a link or control channel as a tap.

    Subclasses that tamper override :meth:`process`, returning the
    (possibly modified) packet or None to drop it; an adversary that only
    injects inherits the pass-through.  ``direction_filter`` restricts
    the adversary to one flow direction (``"a->b"``/``"b->a"`` on links,
    ``"c->dp"``/``"dp->c"`` on control channels); None taps both.
    """

    def __init__(self, name: str = "adversary",
                 direction_filter: Optional[str] = None):
        self.name = name
        self.direction_filter = direction_filter
        self.stats = AdversaryStats()
        self._attached: List[object] = []

    def inject(self, net, switch: str, packet: Packet,
               delay_s: float = 0.0) -> EventHandle:
        """:func:`inject_cpu`, counted in ``stats.injected``."""
        self.stats.injected += 1
        return inject_cpu(net, switch, packet, delay_s)

    def attach(self, channel) -> "Adversary":
        """Install this adversary's tap on a Link or ControlChannel.

        Idempotent per channel: attaching to the same channel twice
        installs exactly one tap, so stats are never double-counted and
        :meth:`detach_all` always leaves the channel clean.
        """
        if any(existing is channel for existing in self._attached):
            return self
        channel.add_tap(self._tap)
        self._attached.append(channel)
        return self

    def detach(self, channel) -> None:
        """Remove this adversary's tap from one channel (no-op if absent)."""
        for existing in list(self._attached):
            if existing is channel:
                channel.remove_tap(self._tap)
                self._attached.remove(existing)
                return

    def detach_all(self) -> None:
        for channel in self._attached:
            channel.remove_tap(self._tap)
        self._attached = []

    def _tap(self, packet: Packet, direction: str) -> Optional[Packet]:
        if (self.direction_filter is not None
                and direction != self.direction_filter):
            return packet
        self.stats.seen += 1
        return self.process(packet, direction)

    def process(self, packet: Packet, direction: str) -> Optional[Packet]:
        return packet


class Eavesdropper(Adversary):
    """Records copies of everything matching a predicate (passive MitM).

    Used by the key-secrecy analysis: the eavesdropper sees every key
    exchange message (public keys and salts) yet cannot derive the master
    secret — the tests feed its recordings to naive derivation attempts
    and assert they all fail.
    """

    def __init__(self, predicate: Optional[Callable[[Packet], bool]] = None,
                 direction_filter: Optional[str] = None):
        super().__init__("eavesdropper", direction_filter)
        self.predicate = predicate or (lambda _packet: True)
        self.recordings: List[Packet] = []

    def process(self, packet: Packet, direction: str) -> Optional[Packet]:
        if self.predicate(packet):
            self.recordings.append(packet.copy())
            self.stats.recorded += 1
        return packet


class MessageDropper(Adversary):
    """Drops every matching packet (availability attack)."""

    def __init__(self, predicate: Optional[Callable[[Packet], bool]] = None,
                 direction_filter: Optional[str] = None):
        super().__init__("dropper", direction_filter)
        self.predicate = predicate or (lambda _packet: True)

    def process(self, packet: Packet, direction: str) -> Optional[Packet]:
        if self.predicate(packet):
            self.stats.dropped += 1
            return None
        return packet
