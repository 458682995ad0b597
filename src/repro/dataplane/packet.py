"""Packets: an ordered header stack plus opaque payload and metadata.

Metadata models the PHV's per-packet scratch space (ingress port, bridged
state, P4Auth verdicts).  It never appears on the wire.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dataplane.headers import Header

_packet_ids = itertools.count(1)


class Packet:
    """A network packet moving through the simulation."""

    def __init__(self, headers: Optional[List[Tuple[str, Header]]] = None,
                 payload: bytes = b""):
        # Header stack in outer-to-inner order, each entry (name, header).
        self._stack: List[Tuple[str, Header]] = []
        # Running sum of the stack's byte widths; push/remove are the only
        # places the stack changes, so they keep it current.
        self._header_bytes = 0
        for name, header in headers or ():
            self.push(name, header)
        self.payload = payload
        self.metadata: Dict[str, object] = {}
        self.packet_id = next(_packet_ids)

    # -- header stack ------------------------------------------------------

    def push(self, name: str, header: Header) -> None:
        """Append a header as the innermost layer."""
        if self.has(name):
            raise ValueError(f"packet already carries header {name!r}")
        self._stack.append((name, header))
        self._header_bytes += header.header_type.byte_width

    def has(self, name: str) -> bool:
        for hname, _ in self._stack:
            if hname == name:
                return True
        return False

    def get(self, name: str) -> Header:
        for hname, header in self._stack:
            if hname == name:
                return header
        raise KeyError(f"packet has no header {name!r}")

    def remove(self, name: str) -> Header:
        for index, (hname, header) in enumerate(self._stack):
            if hname == name:
                del self._stack[index]
                self._header_bytes -= header.header_type.byte_width
                return header
        raise KeyError(f"packet has no header {name!r}")

    def header_names(self) -> List[str]:
        return [hname for hname, _ in self._stack]

    def headers(self) -> Iterator[Tuple[str, Header]]:
        """``(name, header)`` pairs in outer-to-inner order."""
        return iter(self._stack)

    # -- size & serialization ---------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Wire size: all headers plus payload."""
        return self._header_bytes + len(self.payload)

    def serialize(self) -> bytes:
        return b"".join(h.serialize() for _, h in self._stack) + self.payload

    def copy(self) -> "Packet":
        """Deep copy with fresh packet id (models packet duplication)."""
        clone = Packet(payload=self.payload)
        # The stack's names were checked unique when pushed.
        clone._stack = [(name, header.copy()) for name, header in self._stack]
        clone._header_bytes = self._header_bytes
        clone.metadata = dict(self.metadata)
        return clone

    def __repr__(self) -> str:
        names = "/".join(self.header_names()) or "raw"
        return f"Packet#{self.packet_id}({names}, {self.size_bytes}B)"
