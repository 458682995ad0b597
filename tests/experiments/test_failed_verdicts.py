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
from repro.core.kmp import KeyManagementProtocol
from repro.engine import load_artifact, run_experiment
from repro.experiments import cdp_batch, fleet_scale


def eat_everything(_packet, _direction):
    return None


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


def test_fleet_scale_forged_write_names_the_switch(
        tmp_path, capsys, monkeypatch):
    forge_one_switch(monkeypatch, lambda size: size == 24)
    assert_failed_claim(
        tmp_path, capsys, "fleet_scale",
        {"m": [20, 24], "region": [0]}, trials=2,
        forced="fleet_scale[m=24,region=0]",
        checks=["no_forged_write", "seq_agreement"],
        detail="data plane ahead of its controller on {'sw0': -1}")


def test_fleet_scale_abandoned_rollover_op_fails_its_region(
        tmp_path, capsys, monkeypatch):
    """Region 1's sw0 loses its control channel for the rollover, longer
    than the KMP's retry budget: its key updates are abandoned, the round
    still resolves, and the region's checks say so; once the channel is
    back the writes go through, so nothing else fails."""
    real = KeyManagementProtocol.rollover

    def black_out_sw0(self, on_done=None):
        # Region 1's controller: its K_seeds start at region 1's block.
        if self.c.keys.seed("sw0") == fleet_scale._k_seed_base(1):
            channel = self.c.network.control_channels["sw0"]
            channel.add_tap(eat_everything)
            self.c.sim.schedule(2.0, channel.remove_tap, eat_everything)
        real(self, on_done=on_done)

    monkeypatch.setattr(KeyManagementProtocol, "rollover", black_out_sw0)
    sweep = {"m": [24], "region": [0, 1]}
    assert_failed_claim(
        tmp_path, capsys, "fleet_scale", sweep, trials=2,
        forced="fleet_scale[m=24,region=1]",
        checks=["rollover_converged", "one_epoch_per_switch"],
        detail="rollover: 5 of 72 key operations failed")
    failed = run_experiment("fleet_scale", sweep=sweep).result_for(region=1)
    assert failed["rollover"]["failed"] == 5
    assert failed["workload"]["completed"] == 24 * 2


def test_fleet_scale_unresolved_bootstrap_is_a_row_not_an_exception(
        monkeypatch):
    """A bootstrap that never resolves leaves nothing to sign the writes
    with: the trial stops there and reports what it has."""
    monkeypatch.setattr(KeyManagementProtocol, "bootstrap_all",
                        lambda self, on_done=None: None)
    run = run_experiment("fleet_scale", sweep={"m": [24], "region": [0]})
    result = run.result_for(region=0)
    assert run.failures() == [(
        "fleet_scale[m=24,region=0]", "bootstrap_converged",
        "bootstrap did not resolve within 30 s")]
    assert result["bootstrap"] is None and "workload" not in result


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


def test_a_negative_fleet_region_is_refused(monkeypatch):
    """Refused before anything is built, not left to fail deep in the
    crypto on a negative K_seed."""
    def build(*_args, **_kwargs):
        raise AssertionError("a fleet was built for region -1")

    monkeypatch.setattr(fleet_scale, "build_batch_deployment", build)
    with pytest.raises(ValueError, match="region must be >= 0, got -1"):
        run_experiment("fleet_scale", sweep={"region": [-1], "m": [24]})
