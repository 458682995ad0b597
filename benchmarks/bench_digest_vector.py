"""Vector digest lane — throughput floor over the scalar lane.

``vectorized.digest_many`` runs HalfSipHash-2-4 lane-parallel over a
batch of messages; the scalar lane is one ``HalfSipHash.digest`` per
message.  Two checks per batch size (1024 and 4096 messages of 64-byte
C-DP material), same process:

- **bit-identity**: both lanes produce the same tags — a vector lane
  that is fast but wrong would silently break the Eqn 4 integrity
  guarantee;
- **speed**: the vector lane is >= 5x the scalar lane's tags/sec (a
  ratio, so it holds across hosts where an absolute would not).  Measured
  9-10x on a 2-vCPU host, Python 3.11 (one of ten readings 6.0x), down
  from 10-13x before the scalar kernel took lazy masks.
"""

import random

import pytest

from benchmarks.conftest import best_seconds_per_call
from repro.crypto import vectorized
from repro.crypto.halfsiphash import PREFIX, HalfSipHash

#: Vector-lane tags/sec over scalar-lane tags/sec.
SPEEDUP_FLOOR = 5.0
MSG_LEN = 64
REPEATS = 3


@pytest.mark.parametrize("batch", [1024, 4096])
def test_vector_lane_over_scalar(batch, report):
    rng = random.Random(batch)
    key = rng.getrandbits(64)
    prefix = rng.randbytes(PREFIX)
    messages = [prefix + rng.randbytes(MSG_LEN - PREFIX)
                for _ in range(batch)]
    hasher = HalfSipHash()
    assert vectorized.digest_many(key, messages) \
        == [hasher.digest(key, message) for message in messages]

    scalar_s = best_seconds_per_call(
        lambda: [hasher.digest(key, message) for message in messages],
        1, REPEATS)
    vector_s = best_seconds_per_call(
        lambda: vectorized.digest_many(key, messages), 1, REPEATS)
    speedup = scalar_s / vector_s
    report(f"HalfSipHash-2-4, batch {batch} x {MSG_LEN} B: scalar "
           f"{batch / scalar_s:,.0f} tags/s, vector {batch / vector_s:,.0f} "
           f"tags/s, {speedup:.1f}x (acceptance floor: {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"vector lane only {speedup:.1f}x the scalar lane at batch "
        f"{batch} (floor {SPEEDUP_FLOOR}x)")
