"""Markdown report builder (the RESULTS.md generator's skeleton)."""

from repro.analysis.report import MarkdownReport


def test_title_and_sections():
    report = MarkdownReport("Title")
    report.section("A", "body text")
    report.section("B")
    rendered = report.render()
    assert rendered.startswith("# Title\n")
    assert "\n## A\n" in rendered and "body text" in rendered
    assert "\n## B\n" in rendered


def test_tables_render_as_markdown():
    report = MarkdownReport("T")
    report.table(["x", "y"], [[1, 2], ["a", "b"]])
    rendered = report.render()
    assert "| x | y |" in rendered
    assert "|---|---|" in rendered
    assert "| 1 | 2 |" in rendered
    assert "| a | b |" in rendered


def test_paragraph():
    report = MarkdownReport("T")
    report.paragraph("some prose")
    assert "some prose" in report.render()


def test_save_roundtrip(tmp_path):
    report = MarkdownReport("T")
    report.section("S", "content")
    path = tmp_path / "out.md"
    report.save(str(path))
    assert path.read_text() == report.render()


def test_artifact_report_names_failed_checks(tmp_path):
    """A failed trial is more than ``passed = False``: the check that
    failed is named, and only on artifacts that have one."""
    from repro.analysis.report import render_artifact_report
    from repro.engine import run_experiment

    run_experiment("kmp-blackout", sweep={"duration_s": [0.3, 1.5]},
                   out_dir=str(tmp_path))
    rendered = render_artifact_report(str(tmp_path))
    assert "Failed checks:" in rendered
    assert ("| `kmp-blackout[duration_s=0.3]` | ops_abandoned_not_hung | "
            "0 abandoned (expected 2) |") in rendered
    assert "bootstrap_completed" not in rendered  # passing checks

    run_experiment("kmp-blackout", out_dir=str(tmp_path))
    assert "Failed checks" not in render_artifact_report(str(tmp_path))


def test_artifact_report_shows_host_readings_as_marked_columns(tmp_path):
    """A trial's host-clock readings live in ``run_meta``, not in its
    result; the report still gives each its own column, marked."""
    from repro.analysis.report import render_artifact_report
    from repro.engine import ExperimentSpec, Runner

    def timed(ctx):
        ctx.host["wall_s"] = 0.25
        return {"ops": 3}

    spec = ExperimentSpec(name="_test-timed", title="timed", source="test",
                          trial=timed)
    Runner(out_dir=str(tmp_path)).run(spec)
    rendered = render_artifact_report(str(tmp_path))
    assert "| trial | seed | ops | wall_s (host) |" in rendered
    assert "| `_test-timed` | 0 | 3 | 0.25 |" in rendered
