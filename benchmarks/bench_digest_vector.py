"""Vectorized digest lane — throughput floor over the scalar lane.

Runs the `digest_vector` experiment (HalfSipHash-2-4; keyed CRC32 has
one lane) at batch sizes 1024 and 4096 and publishes the canonical
``BENCH_digest_vector.json`` artifact (override the directory with
``REPRO_BENCH_DIR``).  Two gates:

- **bit-identity**: every batch point's scalar and vector trials must
  report the same tag checksum — a vector lane that is fast but wrong
  would silently break the Eqn 4 integrity guarantee;
- **speed**: the vector lane must deliver >= 5x the scalar lane's
  tags/sec at batch >= 1024 (the vector lane's acceptance floor;
  measured 12-16x).
"""

import os

from repro.analysis import format_table
from repro.engine import run_experiment, write_artifact

#: The acceptance floor: vector lane tags/sec over scalar lane tags/sec.
SPEEDUP_FLOOR = 5.0
BATCHES = [1024, 4096]


def run_digest_vector():
    return run_experiment("digest_vector", sweep={"batch": BATCHES})


def test_digest_vector_throughput(benchmark, report):
    run = benchmark.pedantic(run_digest_vector, rounds=1, iterations=1)
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    path = write_artifact(run.document(), out_dir)

    rows = []
    floor_checked = []
    for batch in BATCHES:
        scalar = run.result_for(lane="scalar", batch=batch)
        vector = run.result_for(lane="vector", batch=batch)
        # Bit-identity: the artifact's own cross-check.  A divergent
        # tag stream is a correctness failure, never a perf trade.
        assert vector["checksum"] == scalar["checksum"], (
            f"batch={batch}: vector lane tags diverge from scalar lane")
        speedup = vector["tags_per_s"] / scalar["tags_per_s"]
        floor_checked.append((batch, speedup))
        rows.append([
            scalar["algorithm"],
            f"{batch}",
            vector["backend"],
            f"{scalar['tags_per_s']:,.0f}",
            f"{vector['tags_per_s']:,.0f}",
            f"{speedup:.1f}x",
        ])
    report(format_table(
        ["algorithm", "batch", "backend", "scalar tags/s", "vector tags/s",
         "speedup"],
        rows,
        title="Vectorized digest lane vs scalar (64 B C-DP material)"))
    report(f"artifact: {path}")

    worst = min(floor_checked, key=lambda entry: entry[1])
    report(f"worst speedup: {worst[1]:.1f}x (batch={worst[0]}; "
           f"acceptance floor: {SPEEDUP_FLOOR}x)")
    assert worst[1] >= SPEEDUP_FLOOR, (
        f"vector lane below the {SPEEDUP_FLOOR}x floor: "
        f"batch={worst[0]} is only {worst[1]:.1f}x")
