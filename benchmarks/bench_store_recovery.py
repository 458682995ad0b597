"""Durable-state subsystem: warm-restart chaos + journal overhead.

Two engine runs merged into one ``BENCH_store_recovery.json`` artifact:

* ``controller_crash_recovery`` — SIGKILL the controller mid-burst at
  armed journal-record types across fleet sizes, warm-restart from the
  surviving snapshot+journal, and assert P4Auth's own defenses stay
  silent: zero forged writes, zero replay/digest/DoS trips, and exact
  sequence agreement with every switch after phase 2.
* ``store_journal_overhead`` — the same batched workload with the
  recorder detached vs attached; the acceptance ceiling is <= 10%
  wall-clock overhead under the group-commit (``fsync=batch``) policy.
"""

import os

from repro.analysis import format_table
from repro.engine import run_experiment, write_artifact

#: Production-scale point for the chaos invariants (ISSUE acceptance).
M_LARGE = 100
OVERHEAD_CEILING_PCT = 10.0


def run_crash_sweep():
    return run_experiment(
        "controller_crash_recovery",
        sweep={"kill_on": ["seq_advance", "batch_open"],
               "m": [25, M_LARGE]},
    )


def run_overhead_sweep():
    return run_experiment("store_journal_overhead")


def _merged_artifact(crash_run, overhead_run):
    """One BENCH_store_recovery.json covering both runs."""
    document = crash_run.document()
    overhead_doc = overhead_run.document()
    document["experiment"] = "store_recovery"
    document["title"] = ("Durable controller state: crash recovery "
                         "and journal overhead")
    document["trials"] = document["trials"] + overhead_doc["trials"]
    document["run_meta"] = {
        "controller_crash_recovery": crash_run.run_meta,
        "store_journal_overhead": overhead_run.run_meta,
    }
    return document


def test_store_recovery(report):
    crash, overhead = run_crash_sweep(), run_overhead_sweep()

    crash_host, overhead_host = (run.run_meta["host"]
                                 for run in (crash, overhead))
    rows = []
    for trial in crash.trials:
        r = trial.result
        rows.append([
            f"{r['m']}",
            r["kill_on"],
            r["killed_at_record"] or "-",
            f"{crash_host[trial.id]['recovery_s'] * 1e3:.2f} ms",
            f"{r['replayed_records']}",
            f"{r['windows_open_at_crash']}",
            f"{r['rebootstrapped']}",
            f"{r['phase2_completed']}",
        ])
    report(format_table(
        ["m", "kill on", "killed at", "recovery", "replayed",
         "open wins", "rebooted", "phase2 ok"],
        rows,
        title="Controller crash -> warm restart (fsync=batch)"))

    rows = []
    for trial in overhead.trials:
        r, host = trial.result, overhead_host[trial.id]
        rows.append([
            r["fsync"],
            f"{r['m']}",
            f"{r['journal_records']}",
            f"{host['wall_off_s'] * 1e3:.1f} ms",
            f"{host['wall_on_s'] * 1e3:.1f} ms",
            f"{host['overhead_pct']:+.2f}%",
        ])
    report(format_table(
        ["fsync", "m", "records", "journal off", "journal on",
         "overhead"],
        rows,
        title=(f"Journal overhead vs no-journal baseline "
               f"(ceiling {OVERHEAD_CEILING_PCT:.0f}% at fsync=batch)")))

    # Every claim of every trial held (forged writes, defenses, DoS
    # heuristic, sequence agreement, phase 2 — the trials' own checks).
    assert not crash.failures(), crash.failures()

    # Recovery replays journal state for the whole fleet, and scales:
    # the m=100 restart must stay within interactive bounds.
    for m in (25, M_LARGE):
        r = crash.result_for(kill_on="seq_advance", m=m)
        assert r["switches_restored"] == m
        assert crash.host_for(kill_on="seq_advance", m=m)["recovery_s"] < 5.0

    # Journal overhead ceiling: <= 10% wall-clock under group commit.
    # fsync=always is reported but not gated.
    batch = overhead.result_for(fsync="batch")
    assert batch["journal_records"] > 0
    assert (overhead.host_for(fsync="batch")["overhead_pct"]
            <= OVERHEAD_CEILING_PCT)

    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    path = write_artifact(_merged_artifact(crash, overhead), out_dir)
    report(f"artifact: {path}")
