"""Vector digest lane — throughput floor over the scalar lane.

``vectorized.digest_many`` runs HalfSipHash-2-4 lane-parallel over a
batch of messages; the scalar lane is one ``HalfSipHash.digest`` per
message.  Two checks per batch size (1024 and 4096 messages) and per
material, same process; the material is either 64 random bytes behind
one shared block, or what the C-DP stacks sign, the 26-byte
``digest_material`` of a write request (consecutive sequence numbers,
random register cells):

- **bit-identity**: both lanes produce the same tags — a vector lane
  that is fast but wrong would silently break the Eqn 4 integrity
  guarantee;
- **speed**: the vector lane is >= 5x the scalar lane's tags/sec (a
  ratio, so it holds across hosts where an absolute would not).  At
  64 bytes measured 9-10x on a 2-vCPU host, Python 3.11 (one of ten
  readings 6.0x), down from 10-13x before the scalar kernel took lazy
  masks; at 26 bytes 5.6-10.0x over sixteen readings, both batch
  sizes (median 8.2x).

The gate pins the Python kernel: where the C kernel loaded, both lanes
are one native call per message (``bench_digest_native.py`` gates that).
"""

import random

import pytest

from benchmarks.conftest import best_seconds_per_call
from repro.core.messages import build_reg_write_request, digest_material
from repro.crypto import vectorized
from repro.crypto.halfsiphash import PREFIX, HalfSipHash

#: Vector-lane tags/sec over scalar-lane tags/sec.
SPEEDUP_FLOOR = 5.0
REPEATS = 3


def _random_64(rng, batch):
    prefix = rng.randbytes(PREFIX)
    return [prefix + rng.randbytes(64 - PREFIX) for _ in range(batch)]


def _write_requests(rng, batch):
    return [digest_material(build_reg_write_request(
        3, rng.randrange(16), rng.getrandbits(64), seq))
        for seq in range(1, batch + 1)]


@pytest.mark.parametrize("material", [_random_64, _write_requests],
                         ids=["random_64", "write_request_26"])
@pytest.mark.parametrize("batch", [1024, 4096])
def test_vector_lane_over_scalar(batch, material, report, python_kernel):
    rng = random.Random(batch)
    key = rng.getrandbits(64)
    messages = material(rng, batch)
    hasher = HalfSipHash()
    assert vectorized.digest_many(key, messages) \
        == [hasher.digest(key, message) for message in messages]

    scalar_s = best_seconds_per_call(
        lambda: [hasher.digest(key, message) for message in messages],
        1, REPEATS)
    vector_s = best_seconds_per_call(
        lambda: vectorized.digest_many(key, messages), 1, REPEATS)
    speedup = scalar_s / vector_s
    report(f"HalfSipHash-2-4, batch {batch} x {len(messages[0])} B: scalar "
           f"{batch / scalar_s:,.0f} tags/s, vector {batch / vector_s:,.0f} "
           f"tags/s, {speedup:.1f}x (acceptance floor: {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"vector lane only {speedup:.1f}x the scalar lane at batch "
        f"{batch} (floor {SPEEDUP_FLOOR}x)")
