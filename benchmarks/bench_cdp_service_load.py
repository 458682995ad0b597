"""Controller service — fleet req/s by shard count (DESIGN.md "Controller
service").

Drives the ``cdp_service_load`` experiment at m=100: concurrent
authenticated clients push mixed read/write batches through the sharded
:mod:`repro.service` daemon's real dispatch surface (token auth,
consistent-hash routing, bounded queues).  Each shard owns its share of
the fleet and its own ``issue_window`` slice of the §IV
outstanding-request DoS budget, so fleet throughput should scale with
shard count; the assertion pins >= 3x req/s at 4 shards vs 1.

The trial itself checks the security invariants (zero digest
failures, zero replay rejections, no forged register end-states, no
controller/data-plane sequence divergence) — a violation is a failed
check in the artifact, and fails this benchmark, rather than shipping a
worse number.
"""

from repro.analysis import format_table
from repro.engine import load_artifact, run_experiment
from repro.engine.artifact import artifact_path

M_SWITCHES = 100
CLIENTS = 24
ROUNDS = 6
BATCH_SIZE = 32


def run_service_load():
    return run_experiment(
        "cdp_service_load",
        sweep={"m": [M_SWITCHES], "shards": [1, 4],
               "clients": [CLIENTS], "rounds": [ROUNDS],
               "batch_size": [BATCH_SIZE]},
        out_dir=".",
    )


def test_cdp_service_load(benchmark, report):
    run = benchmark.pedantic(run_service_load, rounds=1, iterations=1)
    single = run.result_for(shards=1)
    sharded = run.result_for(shards=4)

    rows = []
    for r in (single, sharded):
        rows.append([
            r["shards"],
            f"{r['completed']}",
            f"{r['fleet_rps']:.0f}",
            f"{r['p50_s'] * 1e3:.2f} ms",
            f"{r['p99_s'] * 1e3:.2f} ms",
            r["retries_503"],
        ])
    speedup = sharded["fleet_rps"] / single["fleet_rps"]
    report(format_table(
        ["shards", "completed", "req/s", "p50", "p99", "503 retries"],
        rows,
        title=(f"Controller service at m={M_SWITCHES} "
               f"({CLIENTS} clients x {ROUNDS} rounds x "
               f"{BATCH_SIZE}-op batches, P4Auth)")))
    report(f"shard scaling: {speedup:.2f}x fleet req/s at 4 shards "
           f"(acceptance floor: 3x)")

    # Every op reached a terminal outcome; none were forged or lost.
    assert not run.failures(), run.failures()
    for r in (single, sharded):
        assert r["completed"] == r["submitted"]
        assert r["failed"] == 0
    # The tentpole claim: sharding the fleet scales throughput because
    # each shard brings its own DoS-budget slice.
    assert speedup >= 3.0
    # Sharding must also help latency, not just aggregate rate.
    assert sharded["p99_s"] < single["p99_s"]

    # The artifact the run published is schema-valid and complete.
    document = load_artifact(artifact_path("cdp_service_load", "."))
    assert document["experiment"] == "cdp_service_load"
    assert len(document["trials"]) == 2
