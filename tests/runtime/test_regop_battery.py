"""One reg-op battery for everything that applies an op to a register.

Both data planes hold the same kernel (:mod:`repro.core.regops`) and
the P4Runtime cost model shares its ``apply_reg_op``, so "what does this
op do to this register" is stated once here and run against all three:
an op that fits is served, and one that does not — an unmapped id, an
index past the array, a value wider than the cell — is a NACK that
leaves the register alone, never an exception out of the event loop.
"""

import pytest

from repro.core.constants import REG_OP, AlertCode, RegOpType
from repro.core.regops import RegOpTable, apply_reg_op
from repro.dataplane.pipeline import ToController
from repro.dataplane.registers import Register
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.comparison import STACKS, attach_stack
from repro.runtime.plain import PlainRegOpDataplane, build_plain_request

#: A register no request value or index trivially fits: 16 bits x 4.
NARROW = ("narrow", 16, 4)


@pytest.fixture(params=STACKS)
def deployment(request):
    """``narrow`` mapped, ``hidden`` defined but not mapped."""
    sim = EventSimulator()
    net = Network(sim)
    switch = net.add_switch(DataplaneSwitch("s1", num_ports=2)).switch
    switch.registers.define(*NARROW)
    switch.registers.define("hidden", 64, 4)
    stack, dataplanes = attach_stack(request.param, net, ["s1"], ["narrow"],
                                     {"s1": 0x42}, 0.1)
    return request.param, sim, net, stack, dataplanes.get("s1")


def outcome(sim, issue):
    """Run one request to its answer: ``(ok, value)``."""
    answers = []
    issue(lambda ok, value: answers.append((ok, value)))
    sim.run(until=sim.now + 1.0)
    assert len(answers) == 1, "the request got no (or more than one) answer"
    return answers[0]


def point_requests_at_no_register(net):
    """The compromised-OS tap: rewrite the id to one no register has."""
    def tap(packet, direction):
        if direction == "c->dp" and packet.has(REG_OP):
            packet.get(REG_OP)["regId"] = 9999
        return packet
    net.control_channels["s1"].add_tap(tap)
    return tap


def test_read_and_write_are_served(deployment):
    _name, sim, net, stack, _dp = deployment
    assert outcome(sim, lambda cb: stack.write_register(
        "s1", "narrow", 3, 0xBEEF, cb)) == (True, 0xBEEF)
    assert outcome(sim, lambda cb: stack.read_register(
        "s1", "narrow", 3, cb)) == (True, 0xBEEF)
    assert net.switch("s1").registers.get("narrow").read(3) == 0xBEEF


HOSTILE = {
    "read index past the array":
        lambda stack, cb: stack.read_register("s1", "narrow", 999, cb),
    "write index past the array":
        lambda stack, cb: stack.write_register("s1", "narrow", 4, 1, cb),
    "write index 2**32 - 1":
        lambda stack, cb: stack.write_register("s1", "narrow", 2**32 - 1,
                                               1, cb),
    "value wider than the cell":
        lambda stack, cb: stack.write_register("s1", "narrow", 0,
                                               0x1_0000, cb),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_an_op_that_does_not_fit_is_a_nack(deployment, case):
    name, sim, net, stack, dataplane = deployment
    register = net.switch("s1").registers.get("narrow")
    register.write(0, 0x7777)
    before = register.snapshot()

    assert outcome(sim, lambda cb: HOSTILE[case](stack, cb)) == (False, 0)

    assert register.snapshot() == before
    # The data plane is not wedged: the next honest op is served.
    assert outcome(sim, lambda cb: stack.read_register(
        "s1", "narrow", 0, cb)) == (True, 0x7777)
    if name == "P4Auth":
        # The existing alert, not a new code.
        assert dataplane.stats.unknown_register == 1
        assert [a.code for a in stack.alerts] == [AlertCode.UNKNOWN_REGISTER]


def test_an_unmapped_id_is_a_nack(deployment):
    name, sim, net, stack, _dp = deployment
    if name == "P4Runtime":
        # The driver reaches every register: only an id the device does
        # not have is unmapped, and only a tap can put one on the wire.
        tap = point_requests_at_no_register(net)
        assert outcome(sim, lambda cb: stack.read_register(
            "s1", "narrow", 0, cb)) == (False, 0)
        net.control_channels["s1"].remove_tap(tap)
    else:
        assert outcome(sim, lambda cb: stack.read_register(
            "s1", "hidden", 0, cb)) == (False, 0)
        assert outcome(sim, lambda cb: stack.write_register(
            "s1", "hidden", 0, 5, cb)) == (False, 0)
        assert net.switch("s1").registers.get("hidden").read(0) == 0
    assert outcome(sim, lambda cb: stack.read_register(
        "s1", "narrow", 0, cb))[0] is True


def test_a_raw_cpu_port_packet_cannot_throw_out_of_dp_reg_rw():
    """No controller in front: whatever a CPU-port packet carries, the
    unauthenticated data plane answers it."""
    switch = DataplaneSwitch("s1", num_ports=2)
    switch.registers.define(*NARROW)
    reg_id = PlainRegOpDataplane(switch).install().map_register("narrow")
    for msg_type, index, value in (
            (RegOpType.READ_REQ, 999, 0),
            (RegOpType.WRITE_REQ, 2**32 - 1, 1),
            (RegOpType.WRITE_REQ, 0, 2**64 - 1),
            (RegOpType.ACK, 0, 0)):  # not a request type at all
        actions = switch.process(
            build_plain_request(msg_type, reg_id, index, value, 7),
            DataplaneSwitch.CPU_PORT)
        replies = [a.packet for a in actions if isinstance(a, ToController)]
        assert [p.get("ctl")["msgType"] for p in replies] == [RegOpType.NACK]
    assert switch.registers.get("narrow").snapshot() == [0, 0, 0, 0]


class TestKernel:
    def test_apply_reg_op_bounds(self):
        register = Register("r", 8, 2)
        assert apply_reg_op(register, True, 1, 0xFF) == 0xFF
        assert apply_reg_op(register, False, 1, 0) == 0xFF
        assert apply_reg_op(register, False, 2, 0) is None
        assert apply_reg_op(register, False, -1, 0) is None
        assert apply_reg_op(register, True, 0, 0x100) is None
        assert apply_reg_op(register, True, 0, -1) is None
        assert register.snapshot() == [0, 0xFF]
        # A read ignores the value field, whatever it holds.
        assert apply_reg_op(register, False, 0, 2**70) == 0

    def test_a_zero_result_is_an_ack(self):
        switch = DataplaneSwitch("s1", num_ports=1)
        switch.registers.define("r", 8, 2)
        kernel = RegOpTable(switch, "t", max_entries=4)
        reg_id = kernel.map_register("r")
        assert kernel.apply(reg_id, RegOpType.READ_REQ, 0, 0) == 0
        assert kernel.apply(reg_id, RegOpType.WRITE_REQ, 0, 0) == 0
        assert kernel.apply(reg_id, RegOpType.ACK, 0, 0) is None
        assert kernel.apply(reg_id + 1, RegOpType.READ_REQ, 0, 0) is None

    def test_each_owner_keeps_its_own_table(self):
        switch = DataplaneSwitch("s1", num_ports=1)
        kernel = RegOpTable(switch, "plain_reg_id_to_name", max_entries=8)
        assert switch.table("plain_reg_id_to_name") is kernel.table
        assert kernel.table.max_entries == 8
