"""Fleet scale — 1k/4k/10k-switch fleets as four independent domains
(DESIGN.md "Independent domains").

Drives the ``fleet_scale`` experiment at per-region m in {250, 1000,
2500} over regions 0-3: each trial is one region with its own
simulator, controller and key authority, running the full lifecycle
(bootstrap, rollover, batched C-DP writes with ground-truth
verification).  The engine's process pool runs the trials, one whole
region per process; the run is made twice, at ``--workers 1`` and
``--workers 4``, and the two must give equal trials (each region's
host-measured phase seconds live in ``run_meta["host"]``).

Speedup is asserted two ways, because CI hosts vary:

* **partition speedup** — at each m, the sum of the regions' serial
  walls over the largest one: what four workers could reach with one
  region each.  Host-independent (it only uses measured serial walls)
  and must be >= 3x.
* **measured speedup** — ``run_meta.elapsed_s`` of the workers=1 run
  over that of the workers=4 run.  Only asserted when the host has >= 4
  cores; a smaller host runs the pool but cannot go 4x faster.

The trials check the security invariants themselves (both key rounds
converge, one rollover epoch per switch, zero forged register
end-states, controller/DP sequence agreement) — a violation is a failed
check in the artifact, and fails this benchmark, rather than shipping a
worse number.
"""

import os

from repro.analysis.metrics import format_table
from repro.engine.artifact import load_artifact
from repro.engine.runner import run_experiment

M_POINTS = [250, 1000, 2500]
REGIONS = [0, 1, 2, 3]
WORKERS = [1, 4]


def trials(run):
    return [trial.as_artifact_entry() for trial in run.trials]


def region_wall(host):
    return host["bootstrap_s"] + host["rollover_s"] + host["workload_s"]


def test_fleet_scale(report):
    serial, sharded = (
        run_experiment("fleet_scale",
                       sweep={"m": M_POINTS, "region": REGIONS},
                       workers=workers, out_dir=".")
        for workers in WORKERS)
    cpu_count = os.cpu_count() or 1
    # Security invariants at every scale point: the trials' own checks.
    assert not serial.failures(), serial.failures()
    # Sharding regions across workers is purely a wall-clock
    # optimization: the trials are identical.
    assert trials(serial) == trials(sharded)

    rows = []
    for m in M_POINTS:
        regions = serial.by("region", REGIONS, m=m)
        walls = [region_wall(serial.host_for(m=m, region=region))
                 for region in REGIONS]
        part = sum(walls) / max(walls)
        bootstrap_s = max(r["bootstrap"]["duration_s"]
                          for r in regions.values())
        rows.append([
            m * len(REGIONS),
            m,
            sum(r["bootstrap"]["completed"] for r in regions.values()),
            f"{bootstrap_s * 1e3:.2f} ms",
            sum(r["workload"]["completed"] for r in regions.values()),
            f"{sum(walls):.1f} s",
            f"{max(walls):.1f} s",
            f"{part:.2f}x",
        ])
        # The acceptance floor: >= 3x partition speedup at 4 regions.
        assert part >= 3.0

    measured = serial.run_meta["elapsed_s"] / sharded.run_meta["elapsed_s"]
    if cpu_count >= 4:
        assert measured >= 3.0

    report(format_table(
        ["fleet", "m / region", "bootstrap ops", "bootstrap (virtual)",
         "writes ok", "walls x1", "largest", "partition"],
        rows, title="Fleet of four independent domains (workers=1 walls)"))
    report(f"run wall x1 {serial.run_meta['elapsed_s']:.1f} s, "
           f"x4 {sharded.run_meta['elapsed_s']:.1f} s: measured "
           f"{measured:.2f}x on cpu_count={cpu_count} (asserted only on "
           f"hosts with >= 4 cores — the partition speedup is the "
           f"host-independent acceptance number)")

    # The artifact the last run published is schema-valid and complete.
    document = load_artifact(sharded.artifact_path)
    assert document["experiment"] == "fleet_scale"
    assert len(document["trials"]) == len(M_POINTS) * len(REGIONS)
