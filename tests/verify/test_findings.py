"""Findings model: rule catalogue, severities, report rendering."""

import json

import pytest

from repro.verify.findings import (
    RULES,
    Finding,
    Report,
    Severity,
    make_finding,
)


class TestCatalogue:
    def test_every_rule_has_severity_and_description(self):
        for rule, (severity, description) in RULES.items():
            assert isinstance(severity, Severity)
            assert description

    def test_expected_rule_families_present(self):
        rules = set(RULES)
        assert {f"TAINT00{i}" for i in range(1, 6)} <= rules
        assert {"RES001", "RES002"} <= rules
        assert {f"INV00{i}" for i in range(1, 6)} <= rules
        assert "LIVE002" in rules
        # The layout-diff rules went with the hand copies they policed.
        assert not {"LIVE001", "RES003"} & rules

    def test_make_finding_carries_catalogued_severity(self):
        assert make_finding("TAINT003", "p", "m").severity \
            is Severity.WARNING
        assert make_finding("TAINT001", "p", "m").severity is Severity.ERROR

    def test_make_finding_rejects_unknown_rule(self):
        with pytest.raises(KeyError):
            make_finding("NOPE001", "p", "m")


class TestFinding:
    def test_location_includes_stage_and_op(self):
        finding = make_finding("INV002", "prog", "m", stage="s1", op_index=3)
        assert finding.location() == "prog/s1/op3"
        assert make_finding("RES001", "prog", "m").location() == "prog"

    def test_render_mentions_rule_severity_and_subject(self):
        text = make_finding("LIVE002", "p4auth", "exposed",
                            subject="p4auth_kauth").render()
        assert "LIVE002" in text
        assert "ERROR" in text
        assert "p4auth_kauth" in text

    def test_as_dict_round_trips_through_json(self):
        finding = make_finding("TAINT001", "p", "msg", stage="s",
                               op_index=1, subject="x")
        doc = json.loads(json.dumps(finding.as_dict()))
        assert doc["rule"] == "TAINT001"
        assert doc["severity"] == "ERROR"
        assert doc["op_index"] == 1


class TestReport:
    def test_ok_iff_no_errors(self):
        report = Report()
        assert report.ok
        report.extend([make_finding("TAINT003", "p", "warning only")])
        assert report.ok  # warnings don't fail the build
        report.extend([make_finding("TAINT001", "p", "leak")])
        assert not report.ok
        assert len(report.errors()) == 1

    def test_by_rule_filters(self):
        report = Report([make_finding("INV001", "a", "m"),
                         make_finding("INV002", "a", "m"),
                         make_finding("INV001", "b", "m")])
        assert len(report.by_rule("INV001")) == 2

    def test_render_text_clean_and_sorted(self):
        assert Report().render_text() == "clean: no findings"
        report = Report([make_finding("RES002", "p", "warn"),
                         make_finding("TAINT001", "p", "err")])
        lines = report.render_text().splitlines()
        assert lines[0].startswith("ERROR")  # errors sort first
        assert lines[1].startswith("WARNING")

    def test_render_json_schema(self):
        report = Report([make_finding("TAINT001", "p", "leak")])
        doc = json.loads(report.render_json())
        assert doc["ok"] is False
        assert doc["errors"] == 1
        assert doc["findings"][0]["rule"] == "TAINT001"
