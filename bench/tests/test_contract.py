"""BENCHMARK.json against what ``bench/run.py`` prints."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def every_spec():
    return CONTRACT["end_to_end"] + CONTRACT["per_layer"]


def test_names_units_and_limits():
    names = [w["name"] for w in CONTRACT["workloads"]] + \
        [spec["name"] for spec in every_spec()]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for spec in every_spec():
        assert UNIT.fullmatch(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
    for spec in CONTRACT["end_to_end"]:
        assert 0 < spec["bound"] <= 0.25
    setup = [s for s in CONTRACT["end_to_end"] if s["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert len(CONTRACT["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert CONTRACT["paths"] == ["bench"]


def test_layers_in_the_contract_are_the_tracers_layers():
    from bench import spans
    declared = {spec["name"][:-len(".self_s")]
                for spec in CONTRACT["per_layer"]
                if spec["name"].endswith(".self_s")}
    assert declared == set(spans.LAYERS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_by_name(trace, key):
    """``fwd_plain`` at 1/50 size: every declared metric is printed with
    its unit, and the last line is the driver's JSON object."""
    seconds = CONTRACT["run_seconds"] / 50
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fwd_plain",
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {spec["name"] for spec in CONTRACT[key]}
    for spec in CONTRACT[key]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert any(line.startswith(f"fwd_plain.{spec['name']} = ")
                   and f" {spec['unit']} " in line for line in lines), spec
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: no result line, exit code != 0."""
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cdp_rw", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
