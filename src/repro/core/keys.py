"""Key storage, on both ends of the protocol.

Data plane (paper §VII): "We define a register with N+1 entries to store
the local key and N port keys, where N is the number of ports.  The local
key is stored at index zero, and port keys at port number as the index."
For consistent key updates (§VI-C) the data plane keeps *two* versions of
each key (old/new) — realized as two register arrays — and messages carry
the version tag that authenticated them.

Controller: per-switch seed/auth/local keys.  Note the controller never
holds *port* keys: it redirects the port-key ADHKD exchange but, thanks to
DH, cannot derive the resulting K_port — a property the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.constants import KEY_VERSIONS
from repro.dataplane.registers import RegisterFile

LOCAL_KEY_INDEX = 0


@dataclass
class VersionedKey:
    """A key with two slots and an active version pointer."""

    slots: list = field(default_factory=lambda: [0, 0])
    active_version: int = 0

    def current(self) -> int:
        return self.slots[self.active_version]

    def by_version(self, version: int) -> int:
        return self.slots[version % KEY_VERSIONS]

    def install_at(self, key: int, version: int) -> int:
        """Install into an explicit version slot and make it active.

        The one install path: the protocol dictates the slot (the
        version is derived from the authenticated exchange messages), so
        the two endpoints cannot drift even if one of them completed an
        attempt the other never saw.  Returns the new active version,
        which senders tag messages with.
        """
        version %= KEY_VERSIONS
        self.slots[version] = key
        self.active_version = version
        return version


class DataplaneKeyStore:
    """The switch-resident key registers.

    Two 64-bit register arrays of N+1 entries (one per key version); the
    local key lives at index 0 and each port key at its port index.  The
    ``p4auth_key_version`` register holds each index's active version.
    """

    def __init__(self, registers: RegisterFile, num_ports: int):
        self.num_ports = num_ports
        size = num_ports + 1
        self._key_regs = [
            registers.define(f"p4auth_keys_v{v}", 64, size)
            for v in range(KEY_VERSIONS)
        ]
        self._active = registers.define("p4auth_key_version", 8, size)

    # -- generic access ----------------------------------------------------

    def get(self, index: int, version: Optional[int] = None) -> int:
        """Key at a register index; the active version unless specified."""
        if version is None:
            version = self.active_version(index)
        return self._key_regs[version % KEY_VERSIONS].read(index)

    def install_at(self, index: int, key: int, version: int) -> int:
        """Install into an explicit version slot and make it active
        (see :meth:`VersionedKey.install_at`)."""
        version %= KEY_VERSIONS
        self._key_regs[version].write(index, key)
        self._active.write(index, version)
        return version

    def active_version(self, index: int) -> int:
        return self._active.read(index)

    # -- semantic accessors ----------------------------------------------------

    def local_key(self, version: Optional[int] = None) -> int:
        return self.get(LOCAL_KEY_INDEX, version)

    def port_key(self, port: int, version: Optional[int] = None) -> int:
        if not 1 <= port <= self.num_ports:
            raise IndexError(f"port {port} out of range 1..{self.num_ports}")
        return self.get(port, version)

    def has_port_key(self, port: int) -> bool:
        """True if the port has a nonzero key (zero = unprotected edge)."""
        return 1 <= port <= self.num_ports and self.port_key(port) != 0


class ControllerKeyStore:
    """The controller's per-switch key material."""

    def __init__(self):
        self._seed: Dict[str, int] = {}
        self._auth: Dict[str, int] = {}
        self._local: Dict[str, VersionedKey] = {}
        #: Optional observer ``listener(switch, kind, key, version)``
        #: fired synchronously on every install, *before* the caller can
        #: act on the new key — the durability layer's write-ahead hook
        #: (kind is "seed" | "auth" | "local").
        self.listener: Optional[Callable[[str, str, int, int], None]] = None

    # -- seed (pre-shared at switch boot, baked into the P4 binary) ---------

    def set_seed(self, switch: str, k_seed: int) -> None:
        self._seed[switch] = k_seed
        if self.listener is not None:
            self.listener(switch, "seed", k_seed, 0)

    def seed(self, switch: str) -> int:
        if switch not in self._seed:
            raise KeyError(f"no K_seed provisioned for switch {switch!r}")
        return self._seed[switch]

    # -- authentication key (from EAK) ----------------------------------------

    def set_auth_key(self, switch: str, k_auth: int) -> None:
        self._auth[switch] = k_auth
        if self.listener is not None:
            self.listener(switch, "auth", k_auth, 0)

    def auth_key(self, switch: str) -> int:
        if switch not in self._auth:
            raise KeyError(f"no K_auth established with switch {switch!r}")
        return self._auth[switch]

    def has_auth_key(self, switch: str) -> bool:
        return switch in self._auth

    # -- local key (from ADHKD), versioned --------------------------------------

    def install_local_key_at(self, switch: str, k_local: int,
                             version: int) -> int:
        entry = self._local.setdefault(switch, VersionedKey())
        version = entry.install_at(k_local, version)
        if self.listener is not None:
            self.listener(switch, "local", k_local, version)
        return version

    def local_key(self, switch: str, version: Optional[int] = None) -> int:
        if switch not in self._local:
            raise KeyError(f"no K_local established with switch {switch!r}")
        entry = self._local[switch]
        if version is None:
            return entry.current()
        return entry.by_version(version)

    def local_key_version(self, switch: str) -> int:
        if switch not in self._local:
            raise KeyError(f"no K_local established with switch {switch!r}")
        return self._local[switch].active_version

    def has_local_key(self, switch: str) -> bool:
        return switch in self._local

    # -- durability surfaces (repro.store) ---------------------------------

    def known_switches(self) -> list:
        """Every switch with any key material (sorted)."""
        return sorted(set(self._seed) | set(self._auth) | set(self._local))

    def auth_key_or_zero(self, switch: str) -> int:
        return self._auth.get(switch, 0)

    def local_key_slots(self, switch: str):
        """``(slots, active_version)`` of a switch's local key — the raw
        two-version state the snapshot serializes."""
        entry = self._local[switch]
        return list(entry.slots), entry.active_version
