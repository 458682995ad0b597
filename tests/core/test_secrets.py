"""core.secrets is the one home of the internal-register rule."""

import pytest

from repro.core import secrets
from repro.core.auth_dataplane import P4AuthDataplane
from repro.dataplane.p4gen import generate_p4
from repro.dataplane.switch import DataplaneSwitch
from repro.runtime.plain import PlainRegOpDataplane


def test_every_mapping_guard_asks_the_predicate(monkeypatch):
    """A prefix added to INTERNAL_REGISTER_PREFIXES is honoured by
    map_register, both map_all_registers and the P4 generator."""
    monkeypatch.setattr(secrets, "INTERNAL_REGISTER_PREFIXES",
                        ("p4auth_", "vault_"))
    switch = DataplaneSwitch("s1", num_ports=2)
    switch.registers.define("vault_cell", 32, 4)
    switch.registers.define("flow_stats", 32, 4)
    auth = P4AuthDataplane(switch, k_seed=1).install()

    with pytest.raises(PermissionError) as excinfo:
        auth.map_register("vault_cell")
    assert str(excinfo.value) == (
        "register 'vault_cell' is P4Auth-internal state and must not be "
        "exposed to C-DP operations")
    assert set(auth.map_all_registers()) == {"flow_stats"}
    assert set(PlainRegOpDataplane(switch).map_all_registers()) == {
        "flow_stats"}
    source = generate_p4(auth)
    assert "register<bit<32>>(4) vault_cell;" in source
    assert "flow_stats;" not in source


def test_key_install_hooks_carry_no_key_material():
    """Hook subscribers (the controller's KMP, an attacker persona) are
    told *which slot* a key went into, never the key."""
    from tests.conftest import Deployment

    dep = Deployment(num_switches=2, connect_pairs=[("s1", 1, "s2", 1)],
                     bootstrap=False)
    local_calls, port_calls = [], []
    for dataplane in dep.dataplanes.values():
        dataplane.on_local_key_installed.append(
            lambda *args: local_calls.append(args))
        dataplane.on_port_key_installed.append(
            lambda *args: port_calls.append(args))
    kmp = dep.controller.kmp
    kmp.bootstrap_all()
    dep.run(1.0)
    kmp.local_key_update("s1")
    kmp.port_key_update("s1", 1)
    dep.run(1.0)
    assert not kmp.stats.failures

    secrets_held = set()
    for name in dep.dataplanes:
        registers = dep.switch(name).registers
        for reg_name in ("p4auth_keys_v0", "p4auth_keys_v1", "p4auth_kauth"):
            secrets_held.update(registers.get(reg_name).snapshot())
    secrets_held.discard(0)
    # Both local keys twice over for s1, one per side of the port key init
    # and again of its update: every install path fired.
    assert len(local_calls) == 3 and len(port_calls) == 4
    assert len(secrets_held) >= 7
    for call in local_calls + port_calls:
        assert not secrets_held.intersection(call), call
    assert {slot for slot, _now in local_calls} == {0, 1}
    assert {slot for _port, slot, _now in port_calls} == {0, 1}
