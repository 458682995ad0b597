"""Lane equivalence, end to end: the vector digest lane is invisible.

The batch size picks the controller's digest lane.  Pinning it to one
lane (``tests.conftest.pin_lane``) must change *nothing observable* —
not the bytes on any control channel, not the sequence numbers, not the
experiment result payloads.  If it did, a deployment's security behavior
would depend on the controller's host batch size, which is exactly the
coupling :mod:`repro.core.digest` promises cannot exist.

Three probes:

- a wire tap on every control channel of a P4Auth fabric, diffing the
  full per-switch byte streams between a scalar-lane and a
  vector-lane deployment driving the identical workload;
- the ``cdp_batch_throughput`` experiment's ``batched`` trial, run as
  is and with every engine pinned to the scalar lane, whose result
  payloads (virtual-time numbers; deliberately lane-free) must be
  identical;
- per-switch bursts of 2-8 mixed reads and writes, the sizes ``auto``
  moved to the vector lane when the crossover fell from 32 to 2: tap
  bytes, sequence numbers and register end state against the scalar
  lane's.
"""

import sys

import pytest

from repro.core.digest import DigestEngine
from repro.core.wire import serialize_message
from repro.engine import canonical_json, run_experiment, to_jsonable
from repro.experiments.cdp_batch import (
    build_batch_deployment,
    run_batch_workload,
)
from repro.runtime.batch import BatchController
from tests.conftest import pin_lane

M, DEGREE, SEED = 5, 4, 3


def _deploy(digest_lane: str):
    """P4Auth on the small fabric with a tap on every control channel and
    the controller's engine pinned to ``digest_lane`` ("auto" leaves the
    batch size to pick); returns (sim, net, stack, switches, per-switch
    wire)."""
    sim, net, stack, switches = build_batch_deployment(
        "P4Auth", m=M, degree=DEGREE, seed=SEED)
    if digest_lane != "auto":
        pin_lane(stack.digest, digest_lane)
    wires = {name: [] for name in switches}

    def tap_for(name):
        def tap(packet, direction):
            if direction == "c->dp" and packet.has("p4auth"):
                wires[name].append(serialize_message(packet))
            return packet
        return tap

    for name in switches:
        net.control_channels[name].add_tap(tap_for(name))
    return sim, net, stack, switches, wires


def _drive(digest_lane: str):
    """Run the standard batched workload on a tapped deployment; returns
    (per-switch wire, result, stack)."""
    sim, _net, stack, switches, wires = _deploy(digest_lane)
    result = run_batch_workload(sim, stack, switches, mode="batched",
                                requests_per_switch=4, max_in_flight=4)
    assert result["completed"] == result["submitted"] == M * 4
    return wires, result, stack


def test_wire_streams_byte_identical_across_lanes():
    """Scalar lane vs vector lane: every switch sees the exact same
    control-channel bytes in the exact same order."""
    scalar_wires, scalar_result, scalar_stack = _drive("scalar")
    vector_wires, vector_result, vector_stack = _drive("vector")
    assert set(scalar_wires) == set(vector_wires)
    for name in scalar_wires:
        assert scalar_wires[name], f"no tapped traffic for {name}"
        assert scalar_wires[name] == vector_wires[name], \
            f"wire divergence on {name}"
    # The lanes really did differ — this was not scalar vs scalar.
    assert scalar_stack.digest.vector_batches == 0
    assert scalar_stack.digest.scalar_batches > 0
    assert vector_stack.digest.vector_batches > 0
    assert vector_stack.digest.scalar_batches == 0
    # And the virtual-time outcomes agree too.
    assert scalar_result["throughput_rps"] == vector_result["throughput_rps"]


def test_auto_lane_also_byte_identical():
    """The batch-size choice (whatever it picks at this window size)
    sits on the same wire stream as the pinned lanes."""
    scalar_wires, _, _ = _drive("scalar")
    auto_wires, _, _ = _drive("auto")
    assert auto_wires == scalar_wires


def test_experiment_payloads_identical_across_modes(monkeypatch):
    """The ``batched`` trial of cdp_batch_throughput reports the same
    (virtual-time) payload with every digest engine pinned to the scalar
    lane: same throughput, RCTs, window high-water."""
    sweep = {"stack": ["P4Auth"], "mode": ["batched"]}
    auto = run_experiment("cdp_batch_throughput", short=True,
                          sweep=sweep).result_for()
    monkeypatch.setattr(DigestEngine, "VECTOR_THRESHOLD", sys.maxsize)
    scalar = run_experiment("cdp_batch_throughput", short=True,
                            sweep=sweep).result_for()
    assert canonical_json(to_jsonable(auto)) \
        == canonical_json(to_jsonable(scalar))


def _drive_bursts(digest_lane: str, burst: int):
    """Two windows of ``burst`` mixed ops per switch: the first issues as
    one ``sign_many`` burst of that size, the refills one by one."""
    sim, net, stack, switches, wires = _deploy(digest_lane)
    outcomes = []
    BatchController(stack, max_in_flight=burst).submit_many([
        ("write" if i % 3 else "read", name, "target", i % 16, 0xB000 + i,
         lambda ok, value, name=name, i=i:
             outcomes.append((name, i, ok, value)))
        for name in switches for i in range(2 * burst)])
    sim.run()
    assert len(outcomes) == M * 2 * burst and all(o[2] for o in outcomes)
    registers = {name: net.switch(name).registers.get("target").snapshot()
                 for name in switches}
    return (wires, outcomes, dict(stack.requests.seq), registers,
            stack.digest)


@pytest.mark.parametrize("burst", range(2, 9))
def test_small_bursts_identical_between_scalar_and_auto(burst):
    *scalar, scalar_engine = _drive_bursts("scalar", burst)
    *auto, auto_engine = _drive_bursts("auto", burst)
    assert auto == scalar
    # One burst of ``burst`` per switch took the lane under ``auto``.
    assert scalar_engine.vector_messages == 0
    assert auto_engine.vector_batches == M
    assert auto_engine.vector_messages == M * burst
