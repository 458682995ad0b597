"""Figs 18 and 19: register read/write RCT and throughput per stack.

Each trial builds one of the three register-access stacks (P4Runtime,
DP-Reg-RW, P4Auth) on a fresh single-switch deployment and drives the
paper's sequential read or write workload against it; the ``fig18``
spec is that trial, and its claims read Fig 18 (request completion time)
and Fig 19 (throughput) off the same trial matrix.  A fourth row,
``P4Auth+enc``, is P4Auth with the §XI payload encryption on
(``P4AuthController(encrypt_regops=True)``), and prices it.
"""

from __future__ import annotations

from typing import List

from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.net.costs import CostModel
from repro.runtime.comparison import STACKS, build_stack
from repro.runtime.harness import RunStats, run_sequential


def stats_to_dict(stats: RunStats, stack: str,
                  include_samples: bool = False) -> dict:
    """Canonical trial form of one sequential run (Fig 18/19 columns)."""
    out = {
        "stack": stack,
        "kind": stats.kind,
        "duration_s": stats.duration_s,
        "completed": stats.completed,
        "throughput_rps": stats.throughput_rps,
        "mean_rct_s": stats.mean_rct_s,
        "p5_rct_s": stats.percentile_rct_s(5),
        "p50_rct_s": stats.percentile_rct_s(50),
        "p95_rct_s": stats.percentile_rct_s(95),
        "p99_rct_s": stats.percentile_rct_s(99),
    }
    if include_samples:
        out["rcts_s"] = list(stats.rcts_s)
    return out


#: The grid's encryption-on P4Auth row (not one of ``STACKS``).
ENCRYPTED = "P4Auth+enc"


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    costs = None
    if p["jitter_fraction"]:
        costs = CostModel(jitter_fraction=p["jitter_fraction"])
    encrypted = p["stack"] == ENCRYPTED
    sim, stack = build_stack("P4Auth" if encrypted else p["stack"], costs,
                             telemetry=ctx.telemetry, encrypt_regops=encrypted)
    stats = run_sequential(sim, stack, p["kind"], "s1", "target",
                           duration_s=p["duration_s"])
    return stats_to_dict(stats, p["stack"],
                         include_samples=p["include_samples"])


def _per_stack(run, key: str, jitter: float = 0.0) -> List[List[float]]:
    """``key`` of each stack's read, then write, trial at ``jitter``."""
    return [[run.result_for(stack=stack, kind=kind, jitter_fraction=jitter)[
        key] for stack in STACKS] for kind in ("read", "write")]


def _throughput(run, stack: str) -> List[float]:
    """``stack``'s read, then write, throughput at zero jitter."""
    return [run.result_for(stack=stack, kind=kind, jitter_fraction=0.0)[
        "throughput_rps"] for kind in ("read", "write")]


SPEC = register(ExperimentSpec(
    name="fig18",
    title="Register R/W request completion time and throughput",
    source="Fig 18, Fig 19",
    trial=_trial,
    grid={"stack": [*STACKS, ENCRYPTED], "kind": ["read", "write"]},
    defaults={"duration_s": 10.0, "jitter_fraction": 0.0,
              "include_samples": False},
    short={"duration_s": 1.0},
    tags=("figure", "runtime"),
    # Read off [read, write] x [P4Runtime, DP-Reg-RW, P4Auth].
    claims=(
        claim("fig18_rct", "P4Auth ≈ DP-Reg-RW; writes > reads, every stack",
              lambda run: _per_stack(run, "mean_rct_s"),
              lambda rct: all(w > r for r, w in zip(*rct)) and all(
                  abs(kind[2] / kind[1] - 1) < 0.10 for kind in rct),
              "P4Auth {0[0][2]:.3g} / {0[1][2]:.3g} s, "
              "DP-Reg-RW {0[0][1]:.3g} / {0[1][1]:.3g} s"),
        claim("fig18_rct_cdf_ordering", "DP-Reg-RW <= P4Auth <= P4Runtime "
              "at p5/p50/p95 (15 % transit jitter)",
              lambda run: [_per_stack(run, key, 0.15)[0]
                           for key in ("p5_rct_s", "p50_rct_s", "p95_rct_s")],
              lambda pcts: all(p[1] <= p[2] <= p[0] * 1.05 for p in pcts),
              "p50 {0[1][1]:.3g} / {0[1][2]:.3g} / {0[1][0]:.3g} s"),
        claim("fig19_p4runtime_read_write_ratio",
              "1.7x; writes alike on every stack",
              lambda run: _per_stack(run, "throughput_rps"),
              lambda rps: 1.5 < rps[0][0] / rps[1][0] < 1.9
              and max(rps[1]) / min(rps[1]) < 1.1,
              "{0[0][0]:.0f} / {0[1][0]:.0f} req/s"),
        claim("fig19_p4auth_drops", "-4.2 % read, -2.1 % write",
              lambda run: [1 - rps[2] / rps[1]
                           for rps in _per_stack(run, "throughput_rps")],
              lambda drop: 0.02 < drop[0] < 0.07 and 0.01 < drop[1] < 0.05,
              "-{0[0]:.1%} read, -{0[1]:.1%} write"),
        claim("xi_encryption_drop", "< 5 % read and write (§XI: a couple "
              "of hash-unit passes per message)",
              lambda run: [1 - encrypted / plain for encrypted, plain in zip(
                  _throughput(run, ENCRYPTED), _throughput(run, "P4Auth"))],
              lambda drop: all(0 <= d < 0.05 for d in drop),
              "-{0[0]:.1%} read, -{0[1]:.1%} write"),
    ),
))
