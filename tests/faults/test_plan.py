"""FaultPlan validation: bad plans are rejected before they can arm."""

import pytest

from repro.faults import (
    ChannelBlackout,
    FaultPlan,
    LinkFault,
    NodeFault,
)


class TestLinkFaultValidation:
    def test_valid_probabilistic_fault(self):
        LinkFault("drop", probability=0.05).validate()

    def test_valid_nth_packet_fault(self):
        LinkFault("corrupt", every_nth=3).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown link fault kind"):
            LinkFault("melt", probability=0.5).validate()

    def test_no_trigger_rejected(self):
        with pytest.raises(ValueError, match="no trigger"):
            LinkFault("drop").validate()

    def test_both_triggers_rejected(self):
        with pytest.raises(ValueError, match="one trigger"):
            LinkFault("drop", probability=0.5, every_nth=2).validate()

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            LinkFault("drop", probability=1.5).validate()

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            LinkFault("drop", probability=0.1, direction="up").validate()

    def test_inverted_window(self):
        with pytest.raises(ValueError, match="end_s"):
            LinkFault("drop", probability=0.1,
                      start_s=2.0, end_s=1.0).validate()

    def test_window_activation(self):
        fault = LinkFault("drop", probability=0.1, start_s=1.0, end_s=2.0)
        assert not fault.active_at(0.5)
        assert fault.active_at(1.0)
        assert fault.active_at(1.999)
        assert not fault.active_at(2.0)

    def test_open_ended_window(self):
        fault = LinkFault("drop", probability=0.1, start_s=1.0)
        assert fault.active_at(1e9)


class TestOtherFaultValidation:
    def test_node_fault_restart_must_follow_crash(self):
        with pytest.raises(ValueError, match="restart_at_s"):
            NodeFault("s1", crash_at_s=1.0, restart_at_s=0.5).validate()

    def test_blackout_window(self):
        with pytest.raises(ValueError, match="end_s"):
            ChannelBlackout("s1", start_s=1.0, end_s=1.0).validate()

    def test_blackout_direction(self):
        with pytest.raises(ValueError, match="direction"):
            ChannelBlackout("s1", 0.0, 1.0, direction="a->b").validate()

    def test_plan_validates_all_members(self):
        plan = FaultPlan(link_faults=[LinkFault("drop", probability=0.1)],
                         node_faults=[NodeFault("s1", crash_at_s=0.5)],
                         blackouts=[ChannelBlackout("s1", 0.1, 0.2)])
        plan.validate()
        assert plan.fault_count() == 3
        plan.link_faults.append(LinkFault("drop"))
        with pytest.raises(ValueError):
            plan.validate()
