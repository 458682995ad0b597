"""CLI tests for the engine front-end: run / list / report / listing."""

import json
import os

import pytest

from repro.__main__ import main
from repro.engine.artifact import load_artifact, validate_artifact

#: ``table2``'s §XI digest-width trials, after its two programs.
TABLE2_WIDTHS = ("digest32", "digest64", "digest128", "digest256")


class TestListing:
    def test_no_arguments_lists_registry(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Registered experiments" in out
        for name in ("fig17", "table2", "kmp-blackout", "lossy-fig17"):
            assert name in out

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        assert "Registered experiments" in capsys.readouterr().out

    def test_listing_usage_names_every_front_end(self, capsys):
        """The bare listing is the discovery surface: it must name the
        engine subcommands alongside `serve` with consistent exit codes
        (0 informational here, 2 for the unknown-command path below)."""
        assert main([]) == 0
        out = capsys.readouterr().out
        for command in ("run", "report", "serve", "verify", "list"):
            assert command in out
        assert "cdp_service_load" in out

    def test_unknown_subcommand_listing_also_names_serve(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-command"])
        assert excinfo.value.code == 2
        assert "serve" in capsys.readouterr().err

    def test_unknown_command_lists_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-command"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        assert "Registered experiments" in err

    def test_run_unknown_experiment_lists_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "Registered experiments" in err

    def test_run_bare_is_informational_and_exits_0(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "Registered experiments" in out


class TestRun:
    def test_run_emits_valid_artifact(self, tmp_path, capsys):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Hardware resource overhead" in out
        path = tmp_path / "BENCH_table2.json"
        assert path.exists()
        doc = load_artifact(str(path))
        validate_artifact(doc)
        assert [t["params"]["program"] for t in doc["trials"]] == \
            ["baseline", "p4auth", *TABLE2_WIDTHS]

    def test_run_sweep_short_and_workers(self, tmp_path, capsys):
        assert main(["run", "fig21", "--sweep", "hops=2,3",
                     "--short", "--workers", "2",
                     "--out-dir", str(tmp_path)]) == 0
        doc = load_artifact(str(tmp_path / "BENCH_fig21.json"))
        validate_artifact(doc)
        assert len(doc["trials"]) == 4
        assert {t["params"]["hops"] for t in doc["trials"]} == {2, 3}
        assert doc["run_meta"]["workers"] == 2
        assert capsys.readouterr().out  # table printed

    def test_run_exits_1_when_a_trial_reports_failed_invariants(
            self, capsys):
        # Cut short, the run ends before the blacked-out rollovers
        # exhaust their retries: the abandonment invariant cannot hold,
        # and the run must say so in its exit status.
        assert main(["run", "kmp-blackout", "--sweep", "duration_s=0.3",
                     "--out-dir", ""]) == 1
        captured = capsys.readouterr()
        assert "passed=False" in captured.out
        assert "kmp-blackout[duration_s=0.3]: FAILED" in captured.err
        assert ("[FAIL] ops_abandoned_not_hung — 0 abandoned (expected 2)"
                in captured.err)
        assert "bootstrap_completed" not in captured.err  # passing ones
        assert main(["run", "kmp-blackout", "--out-dir", ""]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("sweep, names", [
        (["hops=2,2", "num_probes=3"], "hops=2,2 repeats a value"),
        (["nope=1"], "no parameter 'nope'"),
        (["hops=x"], "--sweep hops=x"),
    ])
    def test_run_bad_sweep_is_one_line_and_exit_2_before_any_trial(
            self, tmp_path, capsys, sweep, names):
        args = ["run", "fig21", "--short", "--out-dir", str(tmp_path)]
        for item in sweep:
            args += ["--sweep", item]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no trial ran, no table printed
        assert len(captured.err.splitlines()) == 1
        assert names in captured.err
        assert "with_p4auth" in captured.err  # the valid parameters
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_bad_workers_is_one_line_and_exit_2_before_any_trial(
            self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig21", "--short", "--workers", workers,
                  "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"--workers {workers}: workers must be >= 1"]
        assert not os.listdir(tmp_path)

    def test_run_trace_dir_on_spec_without_simulator_writes_empty_files(
            self, tmp_path):
        traces = tmp_path / "traces"
        assert main(["run", "table2", "--out-dir", "",
                     "--trace-dir", str(traces)]) == 0
        assert sorted(os.listdir(traces)) == [
            f"table2.program={program}.{ext}"
            for program in sorted(("baseline", "p4auth", *TABLE2_WIDTHS))
            for ext in ("jsonl", "prom")]
        assert all((traces / name).stat().st_size == 0
                   for name in os.listdir(traces))

    def test_run_base_seed_recorded_in_artifact(self, tmp_path):
        assert main(["run", "table3", "--short", "--seed", "9",
                     "--out-dir", str(tmp_path)]) == 0
        doc = load_artifact(str(tmp_path / "BENCH_table3.json"))
        assert doc["base_seed"] == 9
        assert doc["trials"][0]["seed"] == doc["trials"][0]["params"]["seed"]


class TestReport:
    def test_report_renders_artifacts(self, tmp_path, capsys, monkeypatch):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table2 — Hardware resource overhead" in out
        assert "51.4" in out

    def test_report_to_file(self, tmp_path, capsys):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        out_file = tmp_path / "report.md"
        assert main(["report", "--dir", str(tmp_path),
                     "--out", str(out_file)]) == 0
        assert "benchmark artifacts" in out_file.read_text()

    def test_report_empty_directory(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert "No `BENCH_*.json` artifacts" in capsys.readouterr().out

    def test_report_skips_invalid_artifacts_with_warning(
            self, tmp_path, capsys):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        (tmp_path / "BENCH_corrupt.json").write_text("{not json")
        (tmp_path / "BENCH_badschema.json").write_text(
            json.dumps({"schema": "other/9"}))
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # The valid artifact still renders; the broken ones are listed.
        assert "table2 — Hardware resource overhead" in out
        assert "Skipped artifacts" in out
        assert "BENCH_corrupt.json" in out
        assert "BENCH_badschema.json" in out
