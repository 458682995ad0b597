"""FlowRadar mini-model: encoded per-flow counters (Table I).

FlowRadar [9] keeps per-flow packet counters in an invertible bloom
lookup table (IBLT) in the data plane and periodically exports the cells
to the controller, which peels them back into exact flow counts.  The
export crosses the untrusted switch OS: Table I's attack alters the
exported values, which either breaks decoding or — worse — silently
corrupts the recovered counters, poisoning loss analysis.

Scenario: a known flow set is inserted; the controller reads out every
IBLT cell via register reads; the adversary perturbs the ``value_sum``
responses for a few cells.  Without P4Auth, decode still succeeds but
reports wrong counts (*silent* corruption).  With P4Auth, the tampered
responses are rejected, the affected cells are re-read flagged, and the
decode runs on verified data only.

Metric: maximum per-flow counter error in the decoded flow set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.attacks.control_plane import RegisterResponseTamperer
from repro.dataplane.sketches import Iblt, iblt_positions
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.systems.tableone import TableIScenarioResult, build_deployment, check_mode

IBLT_CELLS = 64
NUM_FLOWS = 12


class FlowRadarDataplane:
    """The encoded flowset resident in switch registers."""

    def __init__(self, switch: DataplaneSwitch):
        self.switch = switch
        self.iblt = Iblt(switch.registers, "fr_iblt", cells=IBLT_CELLS)

    def record(self, flow_id: int, packets: int) -> None:
        self.iblt.insert(flow_id, packets)


def _collect_cells(client, sim, switch_name: str,
                   cells: int) -> Tuple[List[List[int]], int]:
    """Read out every IBLT cell via the C-DP register interface.

    Returns (cells, failed_reads): each cell is [count, id_xor,
    value_sum]; reads that never completed (tampered under P4Auth) leave
    ``None`` markers that the caller counts and zero-fills.
    """
    table: List[List[Optional[int]]] = [[None, None, None]
                                        for _ in range(cells)]
    registers = ("fr_iblt_count", "fr_iblt_idxor", "fr_iblt_valsum")

    def reader(index: int, column: int):
        def callback(ok: bool, value: int) -> None:
            if ok:
                table[index][column] = value
        return callback

    for index in range(cells):
        for column, reg_name in enumerate(registers):
            client.read_register(switch_name, reg_name, index,
                                 reader(index, column))
    sim.run(until=sim.now + 10.0)
    failed = sum(1 for cell in table if any(v is None for v in cell))
    filled = [[v if v is not None else 0 for v in cell] for cell in table]
    return filled, failed


def run_scenario(mode: str, *, telemetry=None) -> TableIScenarioResult:
    """Table I row "Measurement / FlowRadar": poison loss analysis."""
    check_mode(mode)
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    flowradar = FlowRadarDataplane(switch)
    client, dataplane = build_deployment(mode, switch, net, sim)

    # Ground truth: NUM_FLOWS flows with known packet counts.
    truth: Dict[int, int] = {
        0x1000 + index: 100 + 7 * index for index in range(NUM_FLOWS)
    }
    for flow_id, packets in truth.items():
        flowradar.record(flow_id, packets)

    if mode in ("attack", "p4auth"):
        valsum_id = switch.registers.id_of("fr_iblt_valsum")
        # Consistently perturb every cell of one target flow: the peel
        # stays self-consistent, so decode *succeeds* with a wrong count
        # for that flow — silent corruption of the loss analysis.  (The
        # IBLT hash functions are public, so the attacker can compute the
        # target cells.)
        target_flow = 0x1005
        cells_of_target = iblt_positions(target_flow, IBLT_CELLS)
        adversary = RegisterResponseTamperer(
            targets=[(valsum_id, index) for index in cells_of_target],
            transform=lambda value: value + 25,
        )
        adversary.attach(net.control_channels["s1"])

    cells, failed_reads = _collect_cells(client, sim, "s1", IBLT_CELLS)
    if failed_reads > 0:
        # Some cell reads failed verification: refuse to decode rather
        # than accept potentially attacker-influenced data.  The failure
        # is known and attributable, not silent.
        decoded = None
    else:
        decoded = Iblt.decode([tuple(cell) for cell in cells])

    if decoded is None:
        max_error = float("inf")
        recovered = 0
    else:
        recovered = len(decoded)
        max_error = max(
            abs(decoded.get(flow_id, 0) - packets)
            for flow_id, packets in truth.items()
        )
    detected = False
    if mode == "p4auth":
        detected = client.stats.tampered_responses > 0
        # With P4Auth the tampered responses never reached the decoder;
        # the failed reads are *known* to the controller, not silent.
        silent = False
    else:
        silent = mode == "attack" and decoded is not None and max_error > 0
    return TableIScenarioResult(
        system="flowradar",
        mode=mode,
        impact_metric="max_flow_count_error",
        impact_value=max_error if max_error != float("inf") else -1.0,
        state_poisoned=silent,
        detected=detected,
        notes=(f"recovered={recovered}/{NUM_FLOWS} "
               f"failed_reads={failed_reads} decode_ok={decoded is not None}"),
    )


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the IBLT encode path.

    The executable model performs encoding host-side
    (:meth:`FlowRadarDataplane.record`), so the ``fr_encode`` stage has no
    live pipeline twin and the stage-order check is switched off.
    """
    from repro.verify.ir import (
        Const, HashDecl, HashDigest, MetaRef, Program,
        RegReadModifyWrite, SetMeta, StageDecl,
    )

    switch = DataplaneSwitch("flowradar-verify", num_ports=4)
    FlowRadarDataplane(switch)
    return Program.from_switch("flowradar", switch, [StageDecl("fr_encode", (
        SetMeta("flow_id", Const(0, 32)),
        HashDigest("cell", (MetaRef("flow_id"),), keyed=False,
                   extern="iblt_hash"),
        RegReadModifyWrite("fr_iblt_count", MetaRef("cell"), Const(1),
                           "cell_count"),
        RegReadModifyWrite("fr_iblt_idxor", MetaRef("cell"),
                           MetaRef("flow_id"), "cell_idxor"),
        RegReadModifyWrite("fr_iblt_valsum", MetaRef("cell"), Const(1),
                           "cell_valsum"),
    ))], hashes=[HashDecl("fr_iblt_hash", 3)], check_stages=False)
