"""The failing arm of every spec that judges itself.

Each case forces exactly one check of one trial to fail and drives the
spec the way a user does — ``run_experiment(..., out_dir=...)`` at one
and two workers, then ``repro run`` — asserting the contract of a failed
claim: the artifact is written and validates, carries every trial, has
``passed: false`` on the forced trial only with the check named, and the
CLI exits 1 with the ``[FAIL]`` line on stderr.  (A failed claim used to
be a ``RuntimeError`` out of the trial: no artifact, the good trials'
results discarded.)
"""

import pytest

from repro.__main__ import main
from repro.core.controller import P4AuthController
from repro.core.kmp import HierarchicalKMP
from repro.engine import load_artifact, run_experiment
from repro.experiments import cdp_batch


def forge_one_switch(monkeypatch, when):
    """One switch reads as ahead of its controller (a forged write) in
    every controller's fleet whose size satisfies ``when``."""
    real = P4AuthController.seq_divergence

    def forged(self):
        divergence = real(self)
        if when(len(divergence)):
            divergence[min(divergence)] = -1
        return divergence

    monkeypatch.setattr(P4AuthController, "seq_divergence", forged)


def assert_failed_claim(tmp_path, capsys, name, sweep, trials, forced,
                        checks, detail):
    """``forced`` is the one trial id that must fail, on ``checks``."""
    for workers in (1, 2):
        out_dir = tmp_path / f"workers{workers}"
        run = run_experiment(name, sweep=sweep, workers=workers,
                             out_dir=str(out_dir))
        document = load_artifact(run.artifact_path)  # validates
        assert document["trials"] == run.document()["trials"]
        verdicts = {trial["id"]: trial["result"]["passed"]
                    for trial in document["trials"]}
        assert len(verdicts) == trials
        assert [trial_id for trial_id, ok in verdicts.items()
                if not ok] == [forced]
        failed = run.failures()
        assert [(trial_id, check) for trial_id, check, _ in failed] \
            == [(forced, check) for check in checks]
        assert detail in failed[0][2]

    args = ["run", name, "--out-dir", str(tmp_path / "cli")]
    for key, values in sweep.items():
        args += ["--sweep", f"{key}={','.join(map(str, values))}"]
    capsys.readouterr()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert f"{forced}: FAILED" in captured.err
    for check in checks:
        assert f"  [FAIL] {check} — " in captured.err
    assert (tmp_path / "cli" / f"BENCH_{name}.json").stat().st_size > 0


def test_crash_recovery_forged_write_is_a_failed_check(
        tmp_path, capsys, monkeypatch):
    forge_one_switch(monkeypatch, lambda size: size == 11)
    assert_failed_claim(
        tmp_path, capsys, "controller_crash_recovery",
        {"kill_on": ["seq_advance"], "m": [9, 11]}, trials=2,
        forced="controller_crash_recovery[kill_on=seq_advance,m=11]",
        checks=["no_forged_write", "seq_agreement"],
        detail="data plane ahead of its controller on {'sw0': -1}")


def test_fleet_scale_region_and_boundary_phase_both_name_the_forgery(
        tmp_path, capsys, monkeypatch):
    # Regions of the m=48 fleet hold 24 switches, of the m=40 fleet 20.
    forge_one_switch(monkeypatch, lambda size: size == 24)
    assert_failed_claim(
        tmp_path, capsys, "fleet_scale",
        {"m": [40, 48], "regions": [2], "workers": [1]}, trials=2,
        forced="fleet_scale[m=48,regions=2,workers=1]",
        # The forged switches sit on no boundary link, so the boundary
        # phase (agreement asserted on boundary switches) names them once.
        checks=["regions.no_forged_write", "regions.seq_agreement",
                "boundary.no_forged_write"],
        detail="data plane ahead of its controller on {'r0': -1, 'r1': -1}")


def test_fleet_scale_unkeyed_boundary_phase_keeps_the_region_results(
        tmp_path, capsys, monkeypatch):
    """The in-window writes cannot be signed without the bootstrap's keys,
    so the phase stops there — as a failed check, not an exception that
    would discard the region phase's numbers."""
    real = HierarchicalKMP.bootstrap_fleet

    def one_op_abandoned(self, deadline_s=30.0):
        summary = real(self, deadline_s=deadline_s)
        if len(self.world.regions[0].switches) == 24:
            summary["failed"] = 1
        return summary

    monkeypatch.setattr(HierarchicalKMP, "bootstrap_fleet", one_op_abandoned)
    sweep = {"m": [40, 48], "regions": [2], "workers": [1]}
    assert_failed_claim(
        tmp_path, capsys, "fleet_scale", sweep, trials=2,
        forced="fleet_scale[m=48,regions=2,workers=1]",
        checks=["boundary.bootstrap_converged"],
        detail="converged=True, 1 key operations failed")
    failed = run_experiment("fleet_scale", sweep=sweep).result_for(m=48)
    assert failed["totals"]["workload_completed"] == 48 * 2
    assert set(failed["boundary"]) == {"bootstrap"}


def test_service_load_forged_write_is_a_failed_check(
        tmp_path, capsys, monkeypatch):
    # Only the two-shard fleet splits its nine switches.
    forge_one_switch(monkeypatch, lambda size: size < 9)
    assert_failed_claim(
        tmp_path, capsys, "cdp_service_load",
        {"shards": [1, 2], "m": [9], "clients": [3], "rounds": [2],
         "batch_size": [4]}, trials=2,
        forced="cdp_service_load[batch_size=4,clients=3,m=9,rounds=2,"
               "shards=2]",
        checks=["no_forged_write", "seq_agreement"],
        detail="data plane ahead of its controller on")


def test_lossy_batch_lost_outcome_is_a_failed_check(
        tmp_path, capsys, monkeypatch):
    real = cdp_batch._trial

    def lose_one(ctx):
        result = real(ctx)
        if ctx.params["loss_rate"] == 0.05:
            result["completed"] -= 1
        return result

    monkeypatch.setattr(cdp_batch, "_trial", lose_one)
    assert_failed_claim(
        tmp_path, capsys, "cdp_batch_lossy",
        {"loss_rate": [0.0, 0.05]}, trials=2,
        forced="cdp_batch_lossy[loss_rate=0.05]",
        checks=["every_request_reaches_a_terminal_outcome"],
        detail="35 terminal outcomes for 36 requests")


def test_a_bad_parameter_still_raises():
    """The rule's other half: a trial with no result to report raises."""
    with pytest.raises(ValueError, match="kill_on must be one of"):
        run_experiment("controller_crash_recovery",
                       sweep={"kill_on": ["no-such-record"], "m": [9]})
