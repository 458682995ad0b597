"""The ``repro verify`` CLI: exit codes, formats, registry coverage."""

import json
import pathlib

import pytest

import repro.verify.cli as cli
from repro.__main__ import main
from repro.verify import analyze
from repro.verify.findings import make_finding
from repro.verify.ir import Program
from repro.verify.registry import build, program_names

GOLDEN_ALL = pathlib.Path(__file__).parent / "golden" / "verify_all.json"

EXPECTED_PROGRAMS = {
    "l3fwd", "hula", "routescout", "blink", "silkroad", "netcache",
    "flowradar", "netwarden", "inaggr", "int", "p4auth",
}

#: The persona-steerable surface SURF001 (WARNING) pins per program —
#: the register paths wire input reaches without a keyed digest.  Every
#: other finding class must stay absent.
EXPECTED_SURFACE = {
    "l3fwd": {"flow_stats"},
    "hula": {"hula_best_hop", "hula_last_update", "hula_min_util"},
    "routescout": {"rs_lat_cnt", "rs_lat_sum"},
    "blink": {"blink_active_nh", "blink_backup_nh", "blink_loss_streak"},
    "silkroad": set(),
    "netcache": {"nc_sketch_row0", "nc_sketch_row1"},
    "flowradar": set(),
    "netwarden": {"nw_ipd_count", "nw_ipd_sq_sum", "nw_ipd_sum",
                  "nw_last_arrival_us"},
    "inaggr": {"agg_bitmap", "agg_count", "agg_sum"},
    "int": set(),
    "p4auth": {"flow_stats"},
}


class TestRegistry:
    def test_all_eleven_programs_registered(self):
        assert set(program_names()) == EXPECTED_PROGRAMS
        assert len(program_names()) == 11

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            build("bmv2")

    def test_every_entry_builds_a_program(self):
        for name in program_names():
            program = build(name)
            assert program.name == name
            assert program.stages, f"{name} declares no stages"


class TestVerifyAll:
    def test_every_registered_program_is_error_free(self):
        for name in program_names():
            findings = analyze(build(name))
            errors = [f for f in findings if f.severity.name == "ERROR"]
            assert errors == [], (
                f"{name}: " + "; ".join(f.render() for f in errors))

    def test_surface_findings_pin_the_persona_surface(self):
        for name in program_names():
            findings = analyze(build(name))
            surface = {f.subject for f in findings if f.rule == "SURF001"}
            assert surface == EXPECTED_SURFACE[name], (
                f"{name}: persona surface changed")
            others = [f for f in findings if f.rule != "SURF001"]
            assert others == [], (
                f"{name}: " + "; ".join(f.render() for f in others))

    def test_cli_all_exits_zero(self, capsys):
        assert main(["verify", "--all"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "11 program(s)" in out

    def test_cli_default_is_all(self, capsys):
        assert main(["verify"]) == 0
        assert "11 program(s)" in capsys.readouterr().out

    def test_cli_subset(self, capsys):
        assert main(["verify", "p4auth", "hula"]) == 0
        assert "2 program(s)" in capsys.readouterr().out

    def test_cli_json_format(self, capsys):
        assert main(["verify", "p4auth", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["errors"] == 0
        assert [f["rule"] for f in doc["findings"]] == ["SURF001"]
        assert doc["findings"][0]["subject"] == "flow_stats"

    def test_cli_all_json_matches_golden(self, capsys):
        assert main(["verify", "--all", "--format", "json"]) == 0
        assert capsys.readouterr().out == GOLDEN_ALL.read_text()


class TestExitCodes:
    def test_unknown_program_exits_2(self, capsys):
        assert main(["verify", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert "unknown program" in captured.err
        assert captured.out == ""

    def test_unknown_program_builds_nothing_and_prints_no_json(
            self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build", built.append)
        assert main(["verify", "p4auth", "nosuch", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "'nosuch'" in captured.err and "p4auth" in captured.err
        assert built == []

    def test_error_findings_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build", Program)
        monkeypatch.setattr(
            cli, "analyze",
            lambda program: [make_finding("TAINT001", program.name, "leak")])
        assert cli.cmd_verify(["p4auth"]) == 1
        out = capsys.readouterr().out
        assert "TAINT001" in out
        assert "1 error(s)" in out

    def test_warning_findings_exit_0(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build", Program)
        monkeypatch.setattr(
            cli, "analyze",
            lambda program: [make_finding("RES002", program.name, "hot")])
        assert cli.cmd_verify(["p4auth"]) == 0
        assert "WARNING" in capsys.readouterr().out


class TestAuxModes:
    def test_list_prints_registry(self, capsys):
        assert main(["verify", "--list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == EXPECTED_PROGRAMS

    def test_selftest_passes(self, capsys):
        assert main(["verify", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: OK" in out
        assert "MISSED" not in out

    def test_selftest_json(self, capsys):
        assert main(["verify", "--selftest", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["mutants"]) == 5
