"""Paper claims: judged after the last trial, written beside ``trials``,
"not evaluated" without their trials, and an exit status when they fail."""

import functools
import json

import pytest

from repro.__main__ import main
from repro.analysis.report import render_artifact_report
from repro.engine import ExperimentSpec, load_artifact, run_experiment
from repro.net.costs import CostModel


def _claims(path):
    return {claim["name"]: claim for claim in load_artifact(path)["claims"]}


def test_short_fig21_leaves_the_10_hop_anchor_not_evaluated(tmp_path, capsys):
    assert main(["run", "fig21", "--short", "--out-dir", str(tmp_path)]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("overhead_10_hops"))
    assert row.rstrip().endswith("not evaluated")
    claims = _claims(tmp_path / "BENCH_fig21.json")
    assert claims["overhead_10_hops"]["holds"] is None
    assert claims["overhead_2_hops"]["holds"] is True


def test_doubled_digest_cost_fails_the_10_hop_claim(tmp_path, capsys,
                                                     monkeypatch):
    doubled = functools.partial(CostModel,
                                digest_op_s=2 * CostModel.digest_op_s)
    monkeypatch.setattr("repro.net.network.CostModel", doubled)
    assert main(["run", "fig21", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "claims: FAILED" in err
    assert "[FAIL] overhead_10_hops — measured +11." in err
    assert _claims(tmp_path / "BENCH_fig21.json")[
        "overhead_10_hops"]["holds"] is False


def test_report_renders_claims_and_artifacts_without_them(tmp_path):
    run = run_experiment("fig21", short=True, out_dir=str(tmp_path))
    rendered = render_artifact_report(str(tmp_path))
    assert "| claim | paper | measured | holds |" in rendered
    assert ("| overhead_10_hops | +5.9 %, near-linear from 2 hops | - "
            "| not evaluated |") in rendered

    document = run.document()
    del document["claims"]
    (tmp_path / "BENCH_fig21.json").write_text(json.dumps(document))
    rendered = render_artifact_report(str(tmp_path))
    assert "Skipped" not in rendered and "`fig21[hops=2," in rendered
    assert "| claim |" not in rendered


def test_claims_and_trials_are_identical_for_any_worker_count():
    serial, parallel = (run_experiment("fig21", short=True, workers=workers)
                        .document() for workers in (1, 2))
    for key in ("claims", "trials"):
        assert json.dumps(serial[key]) == json.dumps(parallel[key])


def _trial(ctx):
    return {"value": ctx.params["x"]}


def _positive(run):
    value = run.result_for(x=1)["value"]
    return value, value > 0


def _broken(run):
    return run.result_for(x=1)["no such key"], True


def test_a_claim_without_its_trials_never_passes():
    spec = ExperimentSpec(name="_test-claims", title="t", source="test",
                          trial=_trial, grid={"x": [1, 2]},
                          short={"x": [2]},
                          claims=(("positive", "> 0", _positive),))
    assert run_experiment(spec).claims == [
        {"name": "positive", "paper": "> 0", "measured": 1, "holds": True}]
    short = run_experiment(spec, short=True)
    assert short.claims[0]["holds"] is None and short.failures() == []


def test_a_failed_claim_is_a_failure_and_a_bug_is_not_hidden():
    failing = ExperimentSpec(
        name="_test-claims", title="t", source="test", trial=_trial,
        grid={"x": [1]},
        claims=(("negative", "< 0", lambda run: (_positive(run)[0], False)),))
    assert run_experiment(failing).failures() == [
        ("claims", "negative", "measured 1, paper < 0")]
    broken = ExperimentSpec(name="_test-claims", title="t", source="test",
                            trial=_trial, grid={"x": [1]},
                            claims=(("broken", "-", _broken),))
    with pytest.raises(KeyError, match="no such key"):
        run_experiment(broken)
