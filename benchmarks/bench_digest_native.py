"""Native digest kernel — throughput floor over the Python kernel.

Where ``crypto/halfsiphash.c`` loaded, ``HalfSipHash.digest`` is one
call into that extension module; elsewhere the Python kernel runs from
its midstate cache.  Two checks, same process, on what the C-DP stacks
sign: the
26-byte ``digest_material`` of write requests (consecutive sequence
numbers, random register cells):

- **bit-identity**: both kernels produce the same tags;
- **speed**: the native ``digest`` is >= 10x the Python kernel's (a
  ratio, so it holds across hosts where an absolute would not).
  Measured 14-19x on a 2-vCPU host, Python 3.11.

The gate fails where the C kernel did not load: it is the kernel gated.
"""

import random

import pytest

from benchmarks.conftest import best_seconds_per_call
from repro.core.messages import build_reg_write_request, digest_material
from repro.crypto import halfsiphash
from repro.crypto.halfsiphash import HalfSipHash

#: Native digests/sec over Python-kernel digests/sec.
SPEEDUP_FLOOR = 10.0
BATCH, REPEATS = 256, 5


def test_native_digest_over_python(report):
    assert halfsiphash._resolve() is not None, "the C kernel did not load"
    rng = random.Random(26)
    key = rng.getrandbits(64)
    messages = [digest_material(build_reg_write_request(
        3, rng.randrange(16), rng.getrandbits(64), seq))
        for seq in range(1, BATCH + 1)]
    hasher = HalfSipHash()

    def tags():
        return [hasher.digest(key, message) for message in messages]

    native_tags = tags()
    native_s = best_seconds_per_call(tags, 1, REPEATS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(halfsiphash, "_NATIVE", None)
        assert tags() == native_tags
        python_s = best_seconds_per_call(tags, 1, REPEATS)
    speedup = python_s / native_s
    report(f"HalfSipHash-2-4 digest, {len(messages[0])} B: Python kernel "
           f"{python_s / BATCH * 1e6:.2f} us, native "
           f"{native_s / BATCH * 1e6:.2f} us, {speedup:.1f}x "
           f"(acceptance floor: {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"native digest only {speedup:.1f}x the Python kernel "
        f"(floor {SPEEDUP_FLOOR}x)")
