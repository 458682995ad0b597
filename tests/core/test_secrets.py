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
