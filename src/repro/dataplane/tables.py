"""Match-action tables with exact, ternary, and LPM matching.

Actions are plain callables registered on the table; an entry names the
action and supplies parameters, as a control plane would install via
P4Runtime.  Ternary entries carry priorities (highest wins), LPM prefers
the longest prefix, exact matches are unambiguous — the standard PISA
semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class MatchKind(enum.Enum):
    """P4 match kinds supported by the table."""

    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"


@dataclass
class TableEntry:
    """One installed table entry.

    ``key`` holds one element per match field: an int for exact, a
    ``(value, mask)`` pair for ternary, and a ``(value, prefix_len)`` pair
    for LPM.
    """

    key: Tuple
    action: str
    params: Dict[str, int] = field(default_factory=dict)
    priority: int = 0

    def matches(self, kinds: Sequence[Tuple[MatchKind, int]],
                lookup_key: Sequence[int]) -> bool:
        for (kind, bits), spec, value in zip(kinds, self.key, lookup_key):
            if kind is MatchKind.EXACT:
                if spec != value:
                    return False
            elif kind is MatchKind.TERNARY:
                entry_value, mask = spec
                if (value & mask) != (entry_value & mask):
                    return False
            elif kind is MatchKind.LPM:
                entry_value, prefix_len = spec
                if prefix_len == 0:
                    continue
                mask = ((1 << prefix_len) - 1) << (bits - prefix_len)
                if (value & mask) != (entry_value & mask):
                    return False
        return True

    def lpm_length(self) -> int:
        """Total prefix length across LPM fields (for longest-prefix wins)."""
        total = 0
        for spec in self.key:
            if isinstance(spec, tuple) and len(spec) == 2:
                total += spec[1] if isinstance(spec[1], int) else 0
        return total


class MatchActionTable:
    """A match-action table bound to named action callables.

    Parameters
    ----------
    name:
        Table name (P4 table identifier).
    match_fields:
        ``(field_name, MatchKind, bit_width)`` triples describing the key.
    max_entries:
        Capacity, used for SRAM/TCAM accounting and install-time checks.
    """

    def __init__(self, name: str,
                 match_fields: Sequence[Tuple[str, MatchKind, int]],
                 max_entries: int = 1024):
        if not match_fields:
            raise ValueError("table needs at least one match field")
        self.name = name
        self.match_fields = list(match_fields)
        self.max_entries = max_entries
        self._kinds = [(kind, bits) for _, kind, bits in self.match_fields]
        kinds = {kind for kind, _ in self._kinds}
        self._has_ternary = MatchKind.TERNARY in kinds
        self._has_lpm = MatchKind.LPM in kinds
        # Among the entries that match, the winner ranks highest: priority
        # with a ternary field, else the longest prefix, then priority.
        self._rank: Callable[[TableEntry], object] = (
            (lambda e: e.priority) if self._has_ternary
            else (lambda e: (e.lpm_length(), e.priority)))
        self._entries: List[TableEntry] = []
        # An exact-only table is hashed (SRAM): key tuple -> the first
        # entry inserted under it.  Ternary / LPM scan the entries.
        self._exact: Optional[Dict[Tuple, TableEntry]] = (
            None if self.uses_tcam else {})
        self._actions: Dict[str, Callable] = {}
        self._default_action: Optional[str] = None
        self._default_params: Dict[str, int] = {}
        self.hit_count = 0
        self.miss_count = 0

    # -- configuration (control-plane surface) -----------------------------

    def register_action(self, name: str, fn: Callable) -> None:
        """Bind an action name to a callable (compile-time binding in P4)."""
        if name in self._actions:
            raise ValueError(f"action {name!r} already registered on {self.name!r}")
        self._actions[name] = fn

    def set_default(self, action: str, **params: int) -> None:
        if action not in self._actions:
            raise KeyError(f"unknown action {action!r} on table {self.name!r}")
        self._default_action = action
        self._default_params = params

    def insert(self, entry: TableEntry) -> None:
        """Install an entry (what P4Runtime's TableEntry write does)."""
        if entry.action not in self._actions:
            raise KeyError(f"unknown action {entry.action!r} on table {self.name!r}")
        if len(entry.key) != len(self.match_fields):
            raise ValueError(
                f"entry key arity {len(entry.key)} != "
                f"table key arity {len(self.match_fields)}"
            )
        if len(self._entries) >= self.max_entries:
            raise RuntimeError(f"table {self.name!r} is full ({self.max_entries})")
        self._entries.append(entry)
        if self._exact is not None:
            self._exact.setdefault(tuple(entry.key), entry)

    def entries(self) -> List[TableEntry]:
        return list(self._entries)

    # -- data-plane lookup ---------------------------------------------------

    def lookup(self, *lookup_key: int):
        """Match ``lookup_key`` and run the winning entry's action.

        Returns whatever the action callable returns (often None; actions
        typically mutate the pipeline context passed via closure or params).
        """
        if self._exact is not None:
            winner = self._exact.get(lookup_key)
        else:
            kinds = self._kinds
            winner = max((e for e in self._entries
                          if e.matches(kinds, lookup_key)),
                         key=self._rank, default=None)
        if winner is not None:
            self.hit_count += 1
            return self._actions[winner.action](**winner.params)
        self.miss_count += 1
        if self._default_action is not None:
            return self._actions[self._default_action](**self._default_params)
        return None

    @property
    def uses_tcam(self) -> bool:
        """Ternary/LPM keys consume TCAM; exact-only tables live in SRAM."""
        return self._has_ternary or self._has_lpm

    @property
    def has_default(self) -> bool:
        """True once a default (miss) action has been configured."""
        return self._default_action is not None

    @property
    def match_kind(self) -> str:
        """Dominant match kind: ternary > lpm > exact (TCAM precedence)."""
        if self._has_ternary:
            return "ternary"
        if self._has_lpm:
            return "lpm"
        return "exact"

    def key_bits(self) -> int:
        return sum(bits for _, _, bits in self.match_fields)

    def describe(self) -> Dict[str, object]:
        """Static-analysis introspection record (consumed by repro.verify)."""
        return {
            "name": self.name,
            "key_bits": self.key_bits(),
            "entries": self.max_entries,
            "match_kind": self.match_kind,
            "has_default": self.has_default,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"MatchActionTable({self.name!r}, {len(self._entries)} entries)"
