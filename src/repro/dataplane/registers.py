"""Stateful register arrays, mirroring P4 ``register`` externs.

Registers are the state that P4Auth protects: in-network systems keep path
utilization, latency aggregates, split ratios, and P4Auth itself keeps its
key material in a register array (local key at index 0, port keys at the
port-number index — paper §VII).
"""

from __future__ import annotations

from typing import Callable, Dict, List


class Register:
    """A fixed-size array of fixed-width unsigned cells."""

    def __init__(self, name: str, width_bits: int, size: int):
        if width_bits <= 0 or size <= 0:
            raise ValueError("width_bits and size must be positive")
        self.name = name
        self.width_bits = width_bits
        self.size = size
        #: Largest value a cell holds; the width is fixed at declaration.
        self.mask = (1 << width_bits) - 1
        self._cells: List[int] = [0] * size
        self.read_count = 0
        self.write_count = 0

    def read(self, index: int) -> int:
        """Read the cell at ``index``."""
        if not 0 <= index < self.size:
            self._check_index(index)
        self.read_count += 1
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        """Write ``value`` into the cell at ``index`` (must fit the width)."""
        if not 0 <= index < self.size:
            self._check_index(index)
        if not 0 <= value <= self.mask:
            raise ValueError(
                f"value {value:#x} does not fit register {self.name!r} "
                f"({self.width_bits} bits)"
            )
        self.write_count += 1
        self._cells[index] = value

    def read_modify_write(self, index: int, fn: Callable[[int], int]) -> int:
        """Atomic read-modify-write, as a stateful ALU would perform."""
        if not 0 <= index < self.size:
            self._check_index(index)
        new = fn(self._cells[index]) & self.mask
        self.read_count += 1
        self.write_count += 1
        self._cells[index] = new
        return new

    def clear(self) -> None:
        """Zero the whole array (controller-driven epoch reset)."""
        self._cells = [0] * self.size
        self.write_count += self.size

    def snapshot(self) -> List[int]:
        """A copy of all cells, for inspection in tests and metrics."""
        return list(self._cells)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(
                f"index {index} out of range for register {self.name!r} "
                f"(size {self.size})"
            )

    @property
    def total_bits(self) -> int:
        """Total SRAM footprint in bits."""
        return self.width_bits * self.size

    def describe(self) -> Dict[str, int]:
        """Static-analysis introspection record (consumed by repro.verify)."""
        return {"width_bits": self.width_bits, "size": self.size}

    def __repr__(self) -> str:
        return f"Register({self.name!r}, {self.width_bits}b x {self.size})"


class RegisterFile:
    """All register arrays of one switch, addressable by name and by id.

    The controller addresses registers by numeric identifier (from the
    p4info file) while the data plane knows them by name; the
    ``reg_id_to_name_mapping`` table in :mod:`repro.core.auth_dataplane`
    bridges the two, exactly as in the paper's Fig 15.
    """

    def __init__(self):
        self._by_name: Dict[str, Register] = {}
        self._ids: Dict[int, str] = {}
        self._next_id = 1

    def define(self, name: str, width_bits: int, size: int) -> Register:
        """Declare a register array; assigns the next p4info-style id."""
        if name in self._by_name:
            raise ValueError(f"register {name!r} already defined")
        register = Register(name, width_bits, size)
        self._by_name[name] = register
        self._ids[self._next_id] = name
        self._next_id += 1
        return register

    def get(self, name: str) -> Register:
        if name not in self._by_name:
            raise KeyError(f"no register named {name!r}")
        return self._by_name[name]

    def id_of(self, name: str) -> int:
        for reg_id, reg_name in self._ids.items():
            if reg_name == name:
                return reg_id
        raise KeyError(f"no register named {name!r}")

    def name_of(self, reg_id: int) -> str:
        if reg_id not in self._ids:
            raise KeyError(f"no register with id {reg_id}")
        return self._ids[reg_id]

    def names(self) -> List[str]:
        return list(self._by_name)

    def id_map(self) -> Dict[int, str]:
        """The id-to-name mapping, as the p4info file would expose it."""
        return dict(self._ids)

    def total_bits(self) -> int:
        return sum(r.total_bits for r in self._by_name.values())

    def describe(self) -> Dict[str, Dict[str, int]]:
        """Name -> layout record for every array (for repro.verify)."""
        return {name: reg.describe() for name, reg in self._by_name.items()}

    def __len__(self) -> int:
        return len(self._by_name)
