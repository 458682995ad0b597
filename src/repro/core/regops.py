"""The register-op kernel (Fig 15): one mapping table, one way to apply.

P4Auth is DP-Reg-RW plus digests: both data planes turn a request into a
register access through a ``(regId, opType) -> action`` table with two
entries per mapped register, so each holds one :class:`RegOpTable` (own
name and size); the P4Runtime cost model reaches registers through the
driver and shares :func:`apply_reg_op`.  Nothing a request carries
raises here: an unmapped id, an index past the array or a value wider
than the cell is a NACK (``None``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.constants import RegOpType
from repro.core.secrets import is_internal_register
from repro.dataplane.registers import Register
from repro.dataplane.switch import DataplaneSwitch
from repro.dataplane.tables import MatchActionTable, MatchKind, TableEntry


def apply_reg_op(register: Register, write: bool, index: int,
                 value: int) -> Optional[int]:
    """Apply one op to ``register``: the value read or written, or
    ``None`` (NACK) when the register refuses the index or the value."""
    try:
        if not write:
            return register.read(index)
        register.write(index, value)
        return value
    except (IndexError, ValueError):
        return None


class RegOpTable:
    """One switch's ``(regId, opType) -> action`` mapping table."""

    def __init__(self, switch: DataplaneSwitch, name: str, max_entries: int):
        self.switch = switch
        self.table = switch.add_table(MatchActionTable(
            name,
            [("regId", MatchKind.EXACT, 32), ("opType", MatchKind.EXACT, 8)],
            max_entries=max_entries,
        ))
        # Per-operation scratch (models PHV metadata within one packet).
        self._index = 0
        self._value = 0

    def map_register(self, name: str) -> int:
        """Install the read and the write entry for a program register;
        returns its p4info-style id."""
        register = self.switch.registers.get(name)
        reg_id = self.switch.registers.id_of(name)
        for suffix, op_type, write in (("read", RegOpType.READ_REQ, False),
                                       ("write", RegOpType.WRITE_REQ, True)):
            self.table.register_action(
                f"{name}_{suffix}",
                lambda write=write: apply_reg_op(
                    register, write, self._index, self._value))
            self.table.insert(TableEntry(key=(reg_id, int(op_type)),
                                         action=f"{name}_{suffix}"))
        return reg_id

    def map_all_registers(self) -> Dict[str, int]:
        """Map every register that is not P4Auth-internal state;
        returns name -> id."""
        return {name: self.map_register(name)
                for name in self.switch.registers.names()
                if not is_internal_register(name)}

    def apply(self, reg_id: int, op_type: int, index: int,
              value: int) -> Optional[int]:
        """Look the op up and run its action: the result value, or
        ``None`` (NACK) for an unmapped ``(regId, opType)`` and for an
        index or value that does not fit the register."""
        self._index = index
        self._value = value
        return self.table.lookup(reg_id, op_type)
