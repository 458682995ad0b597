"""Secret-source annotations: which data-plane state holds key material.

P4Auth's security argument (paper §V, §VII) rests on key material never
leaving the data plane: the local/port key arrays, K_auth, and the
pending Diffie-Hellman exponents of an in-flight ADHKD exchange are all
values an adversary must never observe on the wire, in a mirrored
packet, or through the C-DP register interface.  This module is the
single authoritative list of those sources: the verify IR
(:meth:`repro.verify.ir.Program.from_switch`) takes its ``secret`` flags
from it to seed the taint lattice, the register-mapping guards and the
P4 generator ask :func:`is_internal_register`, and the live checker
uses both to prove no such register is reachable through the
``reg_id_to_name_mapping`` table.

The annotations are *name-based* on purpose: register names are the
stable identity of a :class:`~repro.dataplane.registers.RegisterFile`
array, and the verify IR and Table II are read off that file.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.core.constants import KEY_VERSIONS

#: Register arrays whose cells are key material or key-equivalent
#: secrets (DH exponents recover the session key).  Everything here is
#: labeled SECRET by the taint engine.
SECRET_REGISTERS: FrozenSet[str] = frozenset(
    {f"p4auth_keys_v{version}" for version in range(KEY_VERSIONS)}
    | {
        "p4auth_kauth",       # K_auth from the EAK exchange (Fig 11)
        "p4auth_pending_r1",  # pending ADHKD private exponent r1
        "p4auth_pending_s1",  # pending ADHKD salt S1 (KDF input)
    }
)

#: Any register whose name starts with one of these prefixes is P4Auth
#: internal state and must not be mappable to C-DP operations, secret or
#: not (the coarser guard :meth:`~repro.core.auth_dataplane.P4AuthDataplane.map_register`
#: already enforces at install time).
INTERNAL_REGISTER_PREFIXES: Tuple[str, ...] = ("p4auth_",)


def is_secret_register(name: str) -> bool:
    """True if the named register array holds key material."""
    return name in SECRET_REGISTERS


def is_internal_register(name: str) -> bool:
    """True if the register is P4Auth-internal (never C-DP mappable)."""
    return name.startswith(INTERNAL_REGISTER_PREFIXES)
