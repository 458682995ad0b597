"""Resource model: per-construct pricing and the Table II reproduction."""

import pytest

from repro.core.auth_ir import p4auth_program
from repro.dataplane.resources import (
    HASH_UNITS,
    PHV_CONTAINERS,
    SRAM_BLOCKS,
    TCAM_BLOCKS,
    ProgramSpec,
    ResourceModel,
)
from repro.systems.l3fwd import verify_program as l3fwd_program
from repro.verify.resources_lint import spec_from_program


def test_empty_program_costs_nothing():
    report = ResourceModel().report(ProgramSpec("empty"))
    assert report.tcam_blocks == 0
    assert report.sram_blocks == 0
    assert report.hash_units == 0
    assert report.phv_containers == 0


def test_ternary_table_uses_tcam_and_sram_action_data():
    spec = ProgramSpec("p").add_table("t", key_bits=32, entries=512,
                                      uses_tcam=True, action_data_bits=64)
    assert spec.tcam_blocks() == 1
    assert spec.sram_blocks() == 1  # action data only


def test_wide_key_needs_more_tcam_slices():
    narrow = ProgramSpec("n").add_table("t", 44, 512, True)
    wide = ProgramSpec("w").add_table("t", 45, 512, True)
    assert wide.tcam_blocks() == 2 * narrow.tcam_blocks()


def test_exact_table_uses_sram_and_hash():
    spec = ProgramSpec("p").add_table("t", key_bits=48, entries=1024,
                                      uses_tcam=False)
    assert spec.tcam_blocks() == 0
    assert spec.sram_blocks() >= 1
    assert spec.hash_units() == 1


def test_register_minimum_one_block():
    spec = ProgramSpec("p").add_register("tiny", 8, 1)
    assert spec.sram_blocks() == 1


def test_headers_claim_containers():
    spec = ProgramSpec("p").add_headers("h", 33)
    assert spec.phv_containers() == 2


def test_overfull_program_rejected():
    spec = ProgramSpec("huge")
    spec.add_headers("wide", 32 * (PHV_CONTAINERS + 1))
    with pytest.raises(RuntimeError):
        ResourceModel().report(spec)


def _report(program):
    return ResourceModel().report(spec_from_program(program))


class TestTableII:
    """The headline reproduction: Table II's utilization percentages,
    lowered from the IR of the programs that run."""

    def test_baseline_row(self):
        report = _report(l3fwd_program())
        assert report.tcam_pct == 8.3
        assert report.sram_pct == 2.5
        assert report.hash_pct == 1.4
        assert report.phv_pct == 11.1  # paper: 11%
        assert (report.tcam_blocks, report.sram_blocks, report.hash_units,
                report.phv_containers) == (24, 24, 1, 24)

    def test_p4auth_row(self):
        report = _report(p4auth_program())
        assert report.tcam_pct == 8.3   # P4Auth adds no TCAM
        assert report.sram_pct == 3.6
        assert report.hash_pct == 51.4
        assert report.phv_pct == 23.1
        assert (report.tcam_blocks, report.sram_blocks, report.hash_units,
                report.phv_containers) == (24, 35, 37, 50)

    def test_table2_experiment_reports_the_same_rows(self):
        from tests.conftest import run_trial
        assert run_trial("table2", program="baseline") == \
            _report(l3fwd_program())
        assert run_trial("table2", program="p4auth") == \
            _report(p4auth_program())

    def test_hash_units_are_the_dominant_cost(self):
        base = _report(l3fwd_program())
        auth = _report(p4auth_program())
        deltas = {
            "tcam": auth.tcam_pct - base.tcam_pct,
            "sram": auth.sram_pct - base.sram_pct,
            "hash": auth.hash_pct - base.hash_pct,
            "phv": auth.phv_pct - base.phv_pct,
        }
        assert max(deltas, key=deltas.get) == "hash"

    def test_overlay_registers_match_implementation(self):
        """What the overlay adds to the base inventory is what
        P4AuthDataplane allocates (10 arrays) — the composed IR reads the
        switch, so there is no list to keep in step."""
        from repro.dataplane.switch import DataplaneSwitch
        from repro.core.auth_dataplane import P4AuthDataplane
        switch = DataplaneSwitch("s1", num_ports=64)
        P4AuthDataplane(switch, k_seed=1)
        implementation = set(switch.registers.names())
        assert len(implementation) == 10
        composed = {r.name for r in p4auth_program().registers}
        base = {r.name for r in l3fwd_program().registers}
        assert composed - base == implementation

    def test_sram_scales_linearly_with_ports(self):
        """Paper: key-register SRAM is 64*(M+1) bits — linear in ports."""
        small = p4auth_program(num_ports=64)
        # 64 ports fit in one block; thousands of ports need more.
        huge = p4auth_program(num_ports=10000)
        assert (spec_from_program(huge).sram_blocks()
                > spec_from_program(small).sram_blocks())
        key_array = huge.register("p4auth_keys_v0")
        assert (key_array.width_bits, key_array.size) == (64, 10001)
