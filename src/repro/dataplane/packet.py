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
        # Header stack by name, in insertion (outer-to-inner) order.
        self._stack: Dict[str, Header] = {}
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
        if name in self._stack:
            raise ValueError(f"packet already carries header {name!r}")
        self._stack[name] = header
        self._header_bytes += header.header_type.byte_width

    def has(self, name: str) -> bool:
        return name in self._stack

    def get(self, name: str) -> Header:
        try:
            return self._stack[name]
        except KeyError:
            raise KeyError(f"packet has no header {name!r}") from None

    def remove(self, name: str) -> Header:
        header = self._stack.pop(name, None)
        if header is None:
            raise KeyError(f"packet has no header {name!r}")
        self._header_bytes -= header.header_type.byte_width
        return header

    def header_names(self) -> List[str]:
        return list(self._stack)

    def headers(self) -> Iterator[Tuple[str, Header]]:
        """``(name, header)`` pairs in outer-to-inner order."""
        return iter(self._stack.items())

    # -- size & serialization ---------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Wire size: all headers plus payload."""
        return self._header_bytes + len(self.payload)

    def serialize(self) -> bytes:
        return (b"".join(h.serialize() for h in self._stack.values())
                + self.payload)

    def copy(self) -> "Packet":
        """Deep copy with fresh packet id (models packet duplication)."""
        clone = Packet(payload=self.payload)
        clone._stack = {name: h.copy() for name, h in self._stack.items()}
        clone._header_bytes = self._header_bytes
        clone.metadata = dict(self.metadata)
        return clone

    def __repr__(self) -> str:
        names = "/".join(self.header_names()) or "raw"
        return f"Packet#{self.packet_id}({names}, {self.size_bytes}B)"
