"""Table III: P4Auth scalability with simultaneous key operations.

Two complementary reproductions:

1. **Live count** — build an actual m-switch, n-link network (a random
   4-regular graph gives m=25, n=50 exactly), bootstrap every key, roll
   every key once, and count the controller's real message/byte load.
2. **Analytic formulas** — 4m+5n / 2m+3n messages and 104m+138n /
   60m+78n bytes, evaluated at the paper's (m=25, n=50) point.

The spec's claims compare the two there (Table III prints 125 update
messages against its own 2m+3n = 200; see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis import total
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.experiments.cdp_batch import build_batch_deployment


def formulas(m: int, n: int) -> Dict[str, int]:
    """The paper's Table III scaling formulas."""
    return {
        "init_messages": 4 * m + 5 * n,
        "init_bytes": 104 * m + 138 * n,
        "update_messages": 2 * m + 3 * n,
        "update_bytes": 60 * m + 78 * n,
    }


def _trial(ctx: TrialContext) -> Dict[str, object]:
    """Bootstrap and roll every key on a live m-switch network; count."""
    p = ctx.params
    m, degree, seed = p["m"], p["degree"], p["seed"]
    # The batch fleet (m=25, d=4 gives exactly the paper's n=50 links)
    # with no key established yet: the trial runs the KMP itself.
    sim, _net, controller, _switches = build_batch_deployment(
        "P4Auth", m=m, degree=degree, seed=seed, bootstrap=False,
        telemetry=ctx.telemetry)
    kmp = controller.kmp
    n = len(kmp.switch_links())

    bootstrap_started = sim.now
    done = []
    kmp.bootstrap_all(on_done=lambda: done.append(sim.now))
    sim.run(until=30.0)
    if not done:
        raise RuntimeError("bootstrap did not complete")
    init_records = list(kmp.stats.records)

    # One full rollover: update every local key and every port key.
    before = len(kmp.stats.records)
    kmp.rollover()
    sim.run(until=sim.now + 30.0)
    update_records = kmp.stats.records[before:]

    expected = formulas(m, n)
    return {
        "m_switches": m,
        "n_links": n,
        "init_messages": sum(r.messages for r in init_records),
        "init_bytes": sum(r.bytes for r in init_records),
        "update_messages": sum(r.messages for r in update_records),
        "update_bytes": sum(r.bytes for r in update_records),
        **{f"formula_{key}": value for key, value in expected.items()},
        # Simulated time the parallel bootstrap actually took, vs the
        # serial lower bound (sum of individual operation RTTs).
        # Quantifies §XI's "150 ms ... improves significantly when done
        # in parallel".
        "parallel_init_time_s": done[0] - bootstrap_started,
        "serial_init_time_s": total(r.rtt_s for r in init_records),
    }


SPEC = register(ExperimentSpec(
    name="table3",
    title="KMP scalability on a live network",
    source="Table III",
    trial=_trial,
    defaults={"m": 25, "degree": 4, "seed": 1},
    short={"m": 9},
    seed_param="seed",
    spec_version=4,
    tags=("table", "kmp", "scalability"),
    claims=(
        claim("load_formulas", "4m+5n = 350 msgs / 9.5 KB to initialize, "
              "2m+3n = 200 (printed: 125) / 5.4 KB to update",
              lambda run: run.result_for(m=25, degree=4),
              lambda r: r["n_links"] == 50 and (
                  r["init_messages"], r["init_bytes"], r["update_messages"],
                  r["update_bytes"]) == (350, 9500, 200, 5400),
              "{0[init_messages]} msgs / {0[init_bytes]} B, "
              "{0[update_messages]} msgs / {0[update_bytes]} B"),
        claim("bootstrap_in_parallel", "~150 ms serially; parallel is faster",
              lambda run: run.result_for(m=25, degree=4),
              lambda r: 0.1 < r["serial_init_time_s"] < 0.2
              and r["parallel_init_time_s"] < r["serial_init_time_s"] / 10,
              "serial {0[serial_init_time_s]:.3f} s, "
              "parallel {0[parallel_init_time_s]:.4f} s"),
    ),
))
