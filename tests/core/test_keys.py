"""Key stores: versioned installs, index layout, controller views."""

import pytest

from repro.core.keys import (
    LOCAL_KEY_INDEX,
    ControllerKeyStore,
    DataplaneKeyStore,
    VersionedKey,
)
from repro.dataplane.registers import RegisterFile


def make_store(num_ports=4):
    return DataplaneKeyStore(RegisterFile(), num_ports)


class TestVersionedKey:
    def test_first_install_keeps_version_zero(self):
        key = VersionedKey()
        assert key.install_at(0xAAAA, 0) == 0
        assert key.current() == 0xAAAA

    def test_install_flips_slots(self):
        key = VersionedKey()
        v1 = key.install_at(0xAAAA, 0)
        v2 = key.install_at(0xBBBB, v1 + 1)
        assert key.current() == 0xBBBB
        assert v1 != v2
        # The previous key remains addressable by its version tag.
        assert key.by_version(v1) == 0xAAAA


class TestDataplaneKeyStore:
    def test_local_key_at_index_zero(self):
        """Paper §VII: local key at index 0, port keys at port index."""
        store = make_store()
        store.install_at(LOCAL_KEY_INDEX, 0x1111, 0)
        assert store.get(LOCAL_KEY_INDEX) == 0x1111

    def test_port_keys_at_port_index(self):
        store = make_store()
        store.install_at(3, 0x3333, 0)
        assert store.get(3) == 0x3333
        assert store.port_key(3) == 0x3333

    def test_port_range_validated(self):
        store = make_store(num_ports=2)
        with pytest.raises(IndexError):
            store.port_key(3)
        with pytest.raises(IndexError):
            store.port_key(0)  # index 0 is the local-key slot

    def test_two_version_consistency(self):
        """During an update the old key stays addressable (§VI-C)."""
        store = make_store()
        v_old = store.install_at(LOCAL_KEY_INDEX, 0xAAAA, 0)
        v_new = store.install_at(LOCAL_KEY_INDEX, 0xBBBB, v_old + 1)
        assert store.local_key() == 0xBBBB
        assert store.local_key(version=v_old) == 0xAAAA
        assert store.active_version(LOCAL_KEY_INDEX) == v_new

    def test_has_port_key(self):
        store = make_store()
        assert not store.has_port_key(1)
        store.install_at(1, 0x77, 0)
        assert store.has_port_key(1)
        assert not store.has_port_key(99)

    def test_register_file_backing(self):
        """Keys live in real registers: 64-bit wide, N+1 entries/version."""
        registers = RegisterFile()
        DataplaneKeyStore(registers, num_ports=8)
        v0 = registers.get("p4auth_keys_v0")
        assert v0.width_bits == 64
        assert v0.size == 9


class TestControllerKeyStore:
    def test_seed_provisioning(self):
        store = ControllerKeyStore()
        store.set_seed("s1", 0x5EED)
        assert store.seed("s1") == 0x5EED
        with pytest.raises(KeyError):
            store.seed("s2")

    def test_auth_key_lifecycle(self):
        store = ControllerKeyStore()
        assert not store.has_auth_key("s1")
        store.set_auth_key("s1", 0xA)
        assert store.auth_key("s1") == 0xA
        with pytest.raises(KeyError):
            store.auth_key("s2")

    def test_local_key_versioning(self):
        store = ControllerKeyStore()
        assert not store.has_local_key("s1")
        v1 = store.install_local_key_at("s1", 0x1, 0)
        v2 = store.install_local_key_at("s1", 0x2, v1 + 1)
        assert store.local_key("s1") == 0x2
        assert store.local_key("s1", version=v1) == 0x1
        assert store.local_key_version("s1") == v2
        with pytest.raises(KeyError):
            store.local_key("s2")
        with pytest.raises(KeyError):
            store.local_key_version("s2")
