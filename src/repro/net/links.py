"""Links and control channels, with taps for MitM adversaries.

A :class:`Link` joins two (node, port) endpoints.  A *tap* is a callable
``tap(packet, direction) -> Packet | None`` invoked while the packet is in
flight: it may return the packet unchanged, a modified packet (tampering),
or ``None`` (drop).  Taps are how both adversary classes from the threat
model attach:

- the **on-link MitM** (DP-DP case) taps a :class:`Link`;
- the **compromised switch OS** (C-DP case) taps a :class:`ControlChannel`,
  modeling a malicious preloaded library mangling the arguments of SDK
  calls between the gRPC agent and the driver (paper §II-A).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.dataplane.packet import Packet

# A tap sees (packet, direction) and returns the possibly-modified packet,
# or None to drop it.  Direction is "a->b"/"b->a" for links and
# "c->dp"/"dp->c" for control channels.
Tap = Callable[[Packet, str], Optional[Packet]]


class Link:
    """A bidirectional point-to-point link between two switch ports."""

    def __init__(self, end_a: Tuple[str, int], end_b: Tuple[str, int],
                 latency_s: float = 5e-6, bandwidth_bps: float = 10e9):
        if latency_s < 0 or bandwidth_bps <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        self.end_a = end_a
        self.end_b = end_b
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.up = True
        self.taps: List[Tap] = []
        self.packets_carried = 0
        self.packets_dropped_by_taps = 0
        self.bytes_carried = 0
        # Output-queue model: the time each direction's transmitter is
        # busy until.  Packets arriving while busy queue behind it, so
        # sustained load yields real queueing delay (FCT inflation).
        self._busy_until = {"a->b": 0.0, "b->a": 0.0}
        self.max_queue_delay_s = 0.0

    @property
    def label(self) -> str:
        """Stable identifier used as the telemetry ``link`` label."""
        return (f"{self.end_a[0]}:{self.end_a[1]}-"
                f"{self.end_b[0]}:{self.end_b[1]}")

    def peer_of(self, name: str, port: int) -> Tuple[str, int]:
        """The endpoint opposite (name, port)."""
        if (name, port) == self.end_a:
            return self.end_b
        if (name, port) == self.end_b:
            return self.end_a
        raise ValueError(f"({name}, {port}) is not an endpoint of this link")

    def direction_from(self, name: str, port: int) -> str:
        """The direction a packet leaving (name, port) travels."""
        if (name, port) == self.end_a:
            return "a->b"
        if (name, port) == self.end_b:
            return "b->a"
        raise ValueError(f"({name}, {port}) is not an endpoint of this link")

    def joins(self, name_a: str, name_b: str) -> bool:
        """True if this link connects the two named nodes.

        ``"*"`` matches any node — fault plans use it to target whole
        classes of links (``joins("s1", "*")`` = every link at s1).
        """
        names = (self.end_a[0], self.end_b[0])
        for first, second in ((name_a, name_b), (name_b, name_a)):
            if ((first == "*" or first == names[0])
                    and (second == "*" or second == names[1])):
                return True
        return False

    def add_tap(self, tap: Tap) -> None:
        """Attach an in-flight observer/modifier (MitM attachment point)."""
        self.taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self.taps.remove(tap)

    def transit(self, packet: Packet, direction: str) -> Optional[Packet]:
        """Run taps over a packet in flight; None means dropped."""
        current: Optional[Packet] = packet
        for tap in self.taps:
            current = tap(current, direction)
            if current is None:
                self.packets_dropped_by_taps += 1
                return None
        self.packets_carried += 1
        self.bytes_carried += current.size_bytes
        return current

    def transmit_delay(self, size_bytes: int, direction: str,
                       now: float) -> float:
        """Full delay including queueing behind earlier packets.

        Models a FIFO output queue per direction: serialization starts
        when the transmitter frees up; the returned delay is measured
        from ``now`` to arrival at the far end.
        """
        serialization = size_bytes * 8.0 / self.bandwidth_bps
        busy_until = self._busy_until
        start = busy_until[direction]
        if start < now:
            start = now
        queue_delay = start - now
        busy_until[direction] = start + serialization
        if queue_delay > self.max_queue_delay_s:
            self.max_queue_delay_s = queue_delay
        return queue_delay + serialization + self.latency_s

    def __repr__(self) -> str:
        return f"Link({self.end_a} <-> {self.end_b}, up={self.up})"


class ControlChannel:
    """The controller <-> switch path through the (untrusted) switch OS.

    PacketOut messages travel ``c->dp``; PacketIn messages travel
    ``dp->c``.  Taps here model the compromised-OS adversary: they run
    *after* the controller has composed/authenticated the message and
    *before* the data plane parses it (and vice versa), exactly the window
    the LD_PRELOAD-style attack of §II-A controls.
    """

    def __init__(self, switch_name: str, latency_s: float = 350e-6):
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self.switch_name = switch_name
        self.latency_s = latency_s
        self.taps: List[Tap] = []
        self.messages_carried = 0
        self.messages_dropped_by_taps = 0

    @property
    def label(self) -> str:
        """Stable identifier used as the telemetry ``channel`` label."""
        return f"c-{self.switch_name}"

    def add_tap(self, tap: Tap) -> None:
        self.taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self.taps.remove(tap)

    def transit(self, packet: Packet, direction: str) -> Optional[Packet]:
        if direction not in ("c->dp", "dp->c"):
            raise ValueError(f"bad control-channel direction {direction!r}")
        current: Optional[Packet] = packet
        for tap in self.taps:
            if current is None:
                break
            current = tap(current, direction)
        if current is None:
            self.messages_dropped_by_taps += 1
        else:
            self.messages_carried += 1
        return current
