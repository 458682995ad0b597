"""Header types and instances, mirroring P4 header declarations.

A :class:`HeaderType` declares an ordered list of (field, bit-width) pairs,
like a P4 ``header`` type.  A :class:`Header` is an instance with concrete
field values; it serializes to bytes by packing fields big-endian in
declaration order, which is how the wire format (and therefore message
byte counts in Table III) is computed.  A type whose fields are all 8,
16, 32 or 64 bits (every P4Auth header but ``alert``) packs in C through
one precomputed ``Struct``; any other layout shifts field by field.
"""

from __future__ import annotations

from operator import itemgetter
from struct import Struct
from typing import Dict, NoReturn, Sequence, Tuple

#: ``struct`` codes of the field widths one big-endian ``Struct`` packs.
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class HeaderType:
    """An ordered set of fixed-width fields, like a P4 header type."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, int]]):
        if not fields:
            raise ValueError("header type needs at least one field")
        self.name = name
        # A tuple: the width tables below are derived from it once, so it
        # must not change after declaration.
        self.fields: Tuple[Tuple[str, int], ...] = tuple(
            (fname, bits) for fname, bits in fields)
        self._widths: Dict[str, int] = {}
        total = 0
        for fname, bits in self.fields:
            if fname in self._widths:
                raise ValueError(f"duplicate field {fname!r} in header {name!r}")
            if bits <= 0:
                raise ValueError(f"field {fname!r} must have positive width")
            self._widths[fname] = bits
            total += bits
        if total % 8 != 0:
            raise ValueError(
                f"header {name!r} is {total} bits; headers must be byte-aligned"
            )
        self.bit_width = total
        #: Serialized size in bytes.
        self.byte_width = total // 8
        # field -> first value that no longer fits (1 << width).
        self._limits: Dict[str, int] = {
            fname: 1 << bits for fname, bits in self.fields}
        # Every field at zero, in declaration order: an instance's start.
        self._zeros: Dict[str, int] = dict.fromkeys(self._widths, 0)
        # One Struct and a getter of the values by name in declaration
        # order, or None: shift field by field.
        self._struct = self._getter = None
        if all(bits in _CODES for _fname, bits in self.fields):
            self._struct = Struct(">" + "".join(
                _CODES[bits] for _fname, bits in self.fields))
            names = tuple(self._widths)
            self._getter = (itemgetter(*names) if len(names) > 1  # else an int
                            else lambda values: (values[names[0]],))

    def field_width(self, field: str) -> int:
        try:
            return self._widths[field]
        except KeyError:
            raise KeyError(
                f"header {self.name!r} has no field {field!r}") from None

    def _reject(self, field: str, value: int) -> NoReturn:
        """KeyError for an unknown field, else ValueError: it does not fit."""
        bits = self.field_width(field)
        raise ValueError(
            f"value {value:#x} does not fit field {field!r} ({bits} bits)")

    def instantiate(self, **values: int) -> "Header":
        """Create a header instance; unset fields default to zero."""
        return Header(self, values)

    def parse(self, data: bytes) -> "Header":
        """Parse a header instance from the front of ``data``."""
        if len(data) < self.byte_width:
            raise ValueError(
                f"need {self.byte_width} bytes to parse {self.name!r}, got {len(data)}"
            )
        as_int = int.from_bytes(data[: self.byte_width], "big")
        values: Dict[str, int] = {}
        remaining = self.bit_width
        for fname, bits in self.fields:
            remaining -= bits
            values[fname] = (as_int >> remaining) & ((1 << bits) - 1)
        return Header(self, values)

    def __repr__(self) -> str:
        return f"HeaderType({self.name!r}, {self.bit_width} bits)"


class Header:
    """A concrete header instance with field values."""

    def __init__(self, header_type: HeaderType, values: Dict[str, int]):
        limits = header_type._limits
        for fname, value in values.items():
            limit = limits.get(fname)
            if limit is None or not 0 <= value < limit:
                header_type._reject(fname, value)
        self.header_type = header_type
        self._values: Dict[str, int] = {**header_type._zeros, **values}

    def __getitem__(self, field: str) -> int:
        try:
            return self._values[field]
        except KeyError:
            raise KeyError(
                f"header {self.header_type.name!r} has no field {field!r}"
            ) from None

    def __setitem__(self, field: str, value: int) -> None:
        limit = self.header_type._limits.get(field)
        if limit is None or not 0 <= value < limit:
            self.header_type._reject(field, value)
        self._values[field] = value

    def fields(self) -> Dict[str, int]:
        """A copy of the field values."""
        return dict(self._values)

    def serialize(self) -> bytes:
        """Pack the header to bytes, big-endian in declaration order."""
        header_type = self.header_type
        if header_type._struct is not None:
            return header_type._struct.pack(*header_type._getter(self._values))
        as_int = 0
        for fname, bits in header_type.fields:
            as_int = (as_int << bits) | self._values[fname]
        return as_int.to_bytes(header_type.byte_width, "big")

    def copy(self) -> "Header":
        # Every value was range-checked when it was set: no re-check.
        clone = Header.__new__(Header)
        clone.header_type = self.header_type
        clone._values = self._values.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Header):
            return NotImplemented
        return (
            self.header_type.name == other.header_type.name
            and self._values == other._values
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:#x}" for k, v in self._values.items())
        return f"Header({self.header_type.name}: {inner})"
