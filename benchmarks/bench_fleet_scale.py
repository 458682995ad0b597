"""Fleet scale — region-sharded 10k-switch fabrics (DESIGN.md
"Region-sharded simulation & hierarchical KMP").

Drives the ``fleet_scale`` experiment at m in {1k, 4k, 10k}: the fleet
is split into regions, each with its own simulator/controller/key
authority, and the regions are sharded across the engine's process
pool, one whole region per task.
Phase A measures the full per-region lifecycle (bootstrap, rollover,
batched C-DP writes with ground-truth verification); Phase B rebuilds
the fleet as one lockstep world and runs a coordinated rollover with
live boundary traffic under the cross-region two-version invariant.

Speedup is asserted two ways, because CI hosts vary:

* **partition speedup** — sum of serial per-region walls over the
  slowest single region (at 4 regions and 4 workers every region gets
  its own process).  This is host-independent (it only uses measured
  serial walls) and must be >= 3x at 4 workers.
* **measured speedup** — workers=1 wall over workers=4 wall for the
  region phase.  Only asserted when the host actually has >= 4 cores;
  a 1-core container runs the pool but cannot go faster.

The trial itself checks the security invariants (zero forged
register end-states, controller/DP sequence agreement, zero boundary
two-version violations) — a violation is a failed check in the artifact,
and fails this benchmark, rather than shipping a worse number.
"""

import os

from repro.analysis import format_table
from repro.engine import load_artifact, run_experiment
from repro.engine.artifact import artifact_path

M_POINTS = [1000, 4000, 10000]
WORKERS = [1, 4]


def run_fleet_scale():
    return run_experiment(
        "fleet_scale",
        sweep={"m": M_POINTS, "workers": WORKERS},
        out_dir=".",
    )


def partition_speedup(result):
    """Serial work over the slowest single-region task."""
    walls = [wall["bootstrap_s"] + wall["rollover_s"] + wall["workload_s"]
             for wall in result["wall"]["by_region"].values()]
    return sum(walls) / max(walls)


def test_fleet_scale(report):
    run = run_fleet_scale()
    cpu_count = os.cpu_count() or 1
    # Security invariants at every scale point: the trials' own checks.
    assert not run.failures(), run.failures()

    rows = []
    for m in M_POINTS:
        serial = run.result_for(m=m, workers=1)
        sharded = run.result_for(m=m, workers=4)

        # Sharding regions across workers is purely a wall-clock
        # optimization: everything but the wall block is byte-identical.
        assert {k: v for k, v in serial.items() if k != "wall"} \
            == {k: v for k, v in sharded.items() if k != "wall"}

        totals = serial["totals"]
        part = partition_speedup(serial)
        measured = (serial["wall"]["region_phase_s"]
                    / sharded["wall"]["region_phase_s"])
        rows.append([
            m,
            serial["regions"],
            totals["bootstrap_ops"],
            f"{totals['bootstrap_convergence_s'] * 1e3:.2f} ms",
            totals["workload_completed"],
            f"{serial['wall']['region_phase_s']:.1f} s",
            f"{sharded['wall']['region_phase_s']:.1f} s",
            f"{part:.2f}x",
            f"{measured:.2f}x",
        ])

        assert serial["boundary"] is not None

        # The acceptance floor: >= 3x bootstrap speedup at 4 workers.
        assert part >= 3.0
        if cpu_count >= 4:
            assert measured >= 3.0

    report(format_table(
        ["m", "regions", "bootstrap ops", "fleet bootstrap (virtual)",
         "writes ok", "wall x1", "wall x4", "partition", "measured"],
        rows,
        title=("Region-sharded fleet lifecycle (Phase A walls, "
               "Phase B boundary invariants enforced)")))
    report(f"host cpu_count={cpu_count}; measured wall speedup is "
           f"asserted only on hosts with >= 4 cores — the partition "
           f"speedup (serial walls over the slowest region) is the "
           f"host-independent acceptance number")

    # The artifact the run published is schema-valid and complete.
    document = load_artifact(artifact_path("fleet_scale", "."))
    assert document["experiment"] == "fleet_scale"
    assert len(document["trials"]) == len(M_POINTS) * len(WORKERS)
    for trial in document["trials"]:
        assert trial["result"]["wall"]["cpu_count"] == cpu_count
