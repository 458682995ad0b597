"""HULA's register accesses on the Fig 3 fabric, pinned.

The ``fwd`` benchmark fingerprints the cells a run leaves behind; this
pins how the program got there too: every ``hula_*`` register's cells
with its ``read_count`` / ``write_count``, and each switch's data
transmissions per port, probes processed and data drops.  A rewrite of
HULA's stage that reads a register one time more or less, or in another
branch, moves the hash even when every cell ends the same.  Update the
hashes only for a change that is *meant* to alter what HULA reads.
"""

import hashlib

import pytest

from tests.dataplane.test_hop_budget import (
    BOOTSTRAP_S,
    fig3_hula_fabric,
    tamper_s1_s4,
    traffic,
)

PINNED_SHA256 = {
    "plain": "1895e7e1aa67178eeb1cdac7f39210fda371be7e78956a0932ca4306a93976da",
    "p4auth": "c463c3e9cf4ae3e16a76f2b3614ca1ed9fc0ce211aa0d4413364cb5fbe7d1821",
}


def hula_state_sha256(p4auth: bool) -> str:
    net, sim, h1, h5, hulas = fig3_hula_fabric(p4auth)
    if p4auth:
        tamper_s1_s4(net)
    start = max(sim.now, BOOTSTRAP_S)
    traffic(sim, h1, h5, start, start + 0.06)
    sim.run()
    state = []
    for hula in hulas:
        registers = hula.switch.registers
        state.append((hula.switch.name, [
            (name, registers.get(name).snapshot(),
             registers.get(name).read_count, registers.get(name).write_count)
            for name in registers.names() if name.startswith("hula_")],
            sorted(hula.data_tx_per_port.items()), hula.probes_processed,
            hula.data_dropped))
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("fabric", sorted(PINNED_SHA256))
def test_hula_register_accesses_are_pinned(fabric):
    assert hula_state_sha256(fabric == "p4auth") == PINNED_SHA256[fabric], (
        f"{fabric}: HULA's register cells, access counts or data/probe "
        "tallies changed")
