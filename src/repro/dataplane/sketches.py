"""Compact data-plane data structures (bloom filter, count-min, IBLT).

The Table I systems keep their state in exactly these structures:
SilkRoad's transit table is a bloom filter, NetCache's query statistics
live in a count-min sketch, and FlowRadar's encoded flowset is an
invertible bloom lookup table (IBLT).  All three are implemented over
:class:`~repro.dataplane.registers.Register` arrays with a keyed
HalfSipHash family as their hash functions (the comment at ``_hsh`` says
why not CRC32), the way the real P4 programs realize them — so they are
readable (and attackable) through the same C-DP register interface as
any other switch state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.halfsiphash import HalfSipHash
from repro.dataplane.registers import RegisterFile

# CRC32 is GF(2)-linear, so a salted-CRC family is affinely correlated:
# two items at a constant XOR offset collide under *every* salt at once,
# which wrecks bloom-filter false-positive rates and IBLT decoding.  The
# sketches therefore use HalfSipHash (nonlinear, keyed per salt), which
# is equally implementable on the switch (paper §VII).
_hsh = HalfSipHash(compression_rounds=1, finalization_rounds=2)


def _hash(value: int, salt: int) -> int:
    """One member of the keyed (per-salt) hash family."""
    key = (0x9E3779B97F4A7C15 ^ (salt * 0x100000001B3)) & ((1 << 64) - 1)
    return _hsh.digest_from_state(_hsh.key_schedule(key),
                                  value.to_bytes(8, "little"))


#: Hash functions (k) per bloom filter item.
BLOOM_HASHES = 3


class BloomFilter:
    """A k-hash bloom filter over a 1-bit register array."""

    def __init__(self, registers: RegisterFile, name: str, bits: int = 4096):
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits
        self._cells = registers.define(name, 1, bits)

    def _positions(self, item: int) -> List[int]:
        return [_hash(item, salt) % self.bits
                for salt in range(BLOOM_HASHES)]

    def insert(self, item: int) -> None:
        for position in self._positions(item):
            self._cells.write(position, 1)

    def __contains__(self, item: int) -> bool:
        return all(self._cells.read(p) == 1 for p in self._positions(item))

    def clear(self) -> None:
        """The controller-triggered reset SilkRoad's attack targets."""
        self._cells.clear()


class CountMinSketch:
    """A d x w count-min sketch over d register rows."""

    #: Width of every counter.
    COUNTER_BITS = 32

    def __init__(self, registers: RegisterFile, name: str, width: int = 1024,
                 depth: int = 3):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self._rows = [
            registers.define(f"{name}_row{row}", self.COUNTER_BITS, width)
            for row in range(depth)
        ]

    def update(self, item: int, count: int = 1) -> None:
        for row_index, row in enumerate(self._rows):
            position = _hash(item, 0x100 + row_index) % self.width
            row.read_modify_write(position, lambda v: v + count)

    def estimate(self, item: int) -> int:
        return min(
            row.read(_hash(item, 0x100 + row_index) % self.width)
            for row_index, row in enumerate(self._rows)
        )

    def clear(self) -> None:
        for row in self._rows:
            row.clear()


#: Cells each IBLT item maps to (before de-duplication).
IBLT_HASHES = 3


def iblt_positions(flow_id: int, cells: int) -> List[int]:
    """The sorted, distinct cells ``flow_id`` occupies in a ``cells``-cell
    IBLT: what an insert touches and what a peel checks a pure cell
    against."""
    return sorted({_hash(flow_id, 0x200 + salt) % cells
                   for salt in range(IBLT_HASHES)})


class Iblt:
    """Invertible bloom lookup table — FlowRadar's encoded flowset.

    Each of the k cells an item maps to accumulates: ``count += 1``,
    ``id_xor ^= flow_id``, ``value_sum += value``.  Pure cells
    (count == 1) can be peeled out, recovering the full flow set when
    loaded below capacity.
    """

    def __init__(self, registers: RegisterFile, name: str, cells: int = 256):
        if cells <= 0:
            raise ValueError("cells must be positive")
        self.cells = cells
        self.count = registers.define(f"{name}_count", 32, cells)
        self.id_xor = registers.define(f"{name}_idxor", 64, cells)
        self.value_sum = registers.define(f"{name}_valsum", 64, cells)

    def insert(self, flow_id: int, value: int = 1) -> None:
        for position in iblt_positions(flow_id, self.cells):
            self.count.read_modify_write(position, lambda v: v + 1)
            self.id_xor.read_modify_write(position, lambda v: v ^ flow_id)
            self.value_sum.read_modify_write(position, lambda v: v + value)

    def export(self) -> List[Tuple[int, int, int]]:
        """Snapshot all cells as (count, id_xor, value_sum) triples."""
        return list(zip(self.count.snapshot(), self.id_xor.snapshot(),
                        self.value_sum.snapshot()))

    @staticmethod
    def decode(cells: List[Tuple[int, int, int]]) -> Optional[Dict[int, int]]:
        """Peel an exported cell list back into {flow_id: value}.

        Returns None if decoding fails (cells corrupted or overloaded) —
        which is precisely what a tampered export produces.
        """
        table = [list(cell) for cell in cells]
        size = len(table)

        decoded: Dict[int, int] = {}
        progress = True
        while progress:
            progress = False
            for index in range(size):
                count, id_xor, value_sum = table[index]
                if count != 1:
                    continue
                flow_id, value = id_xor, value_sum
                expected = iblt_positions(flow_id, size)
                if index not in expected:
                    # A "pure" cell whose id doesn't hash back here:
                    # corruption detected.
                    return None
                decoded[flow_id] = decoded.get(flow_id, 0) + value
                for position in expected:
                    table[position][0] -= 1
                    table[position][1] ^= flow_id
                    table[position][2] -= value
                progress = True
        if any(cell[0] != 0 or cell[1] != 0 or cell[2] != 0 for cell in table):
            return None
        return decoded
