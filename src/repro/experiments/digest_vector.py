"""Digest-lane microbenchmark: vectorized vs scalar tag throughput.

The batched issue path made host-CPU crypto the C-DP bottleneck, so
this experiment tracks the raw HalfSipHash-2-4 digest rate of both
software lanes on C-DP-sized material (DESIGN.md "Vectorized digest
lane").  ``benchmarks/bench_digest_vector.py`` runs it and
gates on a >=5x vector-over-scalar floor at batch >= 1024, and CI
publishes the ``BENCH_digest_vector.json`` artifact from the
experiment-smoke matrix.  Keyed CRC32 (the Tofino flavor) has one lane,
``zlib`` per message, so it has no point here.

Timing is wall-clock (the whole point is host-CPU speed), so throughput
fields vary run to run — but every trial also reports a deterministic
``checksum`` XOR-fold of its tags, which must agree between the scalar
and vector trials of one (batch, msg_len, seed) point.  The
artifact therefore carries its own bit-identity cross-check alongside
the timing numbers.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List

from repro.crypto import vectorized
from repro.crypto.halfsiphash import HalfSipHash
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext

#: Realistic C-DP digest-material size: six 8-byte p4auth header words
#: plus the serialized reg_op payload.
DEFAULT_MSG_LEN = 64

#: One value: the axis stays so the trial ids and params of every
#: published ``BENCH_digest_vector.json`` keep naming what was hashed.
ALGORITHMS = ("halfsiphash",)
LANES = ("scalar", "vector")


def _checksum(tags: List[int]) -> int:
    folded = 0
    for tag in tags:
        folded ^= tag
    return folded


def _build_lane(lane: str, key: int,
                messages: List[bytes]) -> Callable[[], List[int]]:
    """The measured callable: one full batch of tags per invocation.

    The scalar lane gets its best honest shape — a precomputed key
    schedule (the PR 5 fast path) and a hoisted bound method — so the
    reported speedup is vector-lane value, not strawman overhead.
    """
    hasher = HalfSipHash()
    state = hasher.key_schedule(key)
    if lane == "scalar":
        digest = hasher.digest_from_state
        return lambda: [digest(state, m) for m in messages]
    states = [state] * len(messages)
    return lambda: vectorized.digest_many_from_state(states, messages)


def _trial(ctx: TrialContext) -> Dict[str, object]:
    p = ctx.params
    if p["algorithm"] not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if p["lane"] not in LANES:
        raise ValueError(f"lane must be one of {LANES}")
    rng = random.Random(ctx.seed)
    messages = [rng.randbytes(p["msg_len"]) for _ in range(p["batch"])]
    key = rng.getrandbits(64)
    run_batch = _build_lane(p["lane"], key, messages)

    tags = run_batch()  # warmup (cache warming)
    best_s = float("inf")
    for _ in range(p["repeats"]):
        started = time.perf_counter()
        tags = run_batch()
        best_s = min(best_s, time.perf_counter() - started)

    return {
        "algorithm": p["algorithm"],
        "lane": p["lane"],
        "backend": "int" if p["lane"] == "vector" else "scalar",
        "batch": p["batch"],
        "msg_len": p["msg_len"],
        "wall_s": best_s,
        "tags_per_s": (p["batch"] / best_s) if best_s > 0 else 0.0,
        # Deterministic: must match across lanes for one parameter point.
        "checksum": _checksum(tags),
    }


SPEC = register(ExperimentSpec(
    name="digest_vector",
    title="Vectorized vs scalar digest-lane throughput",
    source="DESIGN: Vectorized digest lane",
    trial=_trial,
    grid={"algorithm": list(ALGORITHMS), "lane": list(LANES)},
    defaults={"batch": 4096, "msg_len": DEFAULT_MSG_LEN, "repeats": 3,
              "seed": 1},
    short={"batch": 256, "repeats": 1},
    seed_param="seed",
    tags=("crypto", "performance", "batching"),
))
