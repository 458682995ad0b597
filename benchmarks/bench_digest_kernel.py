"""Scalar digest lane — executed kernel over the specification round.

``HalfSipHash.digest_from_state`` is the SipRound inlined as host integer
expressions; ``HalfSipHash._sip_round`` is the same round in switch ALU
ops (``repro.crypto.ops``), one Python call per op.  Every per-packet
digest on the host takes the first, so this gate keeps it from quietly
regressing to call-per-op.  Two checks, same process, on one synthetic
66-byte message (a register op signs 26 bytes):

- **bit-identity**: kernel and spec-assembled digest agree on the tag;
- **speed**: the kernel is >= 1.6x the spec-assembled digest (a ratio,
  so it holds across hosts where an absolute would not).  Ten runs on a
  2-vCPU host, Python 3.11: 2.0-4.1x (median 2.6x) with lazy masks and
  the doubled-word rotate, 1.9-3.0x (median 2.1x) with the masked form.
  The ranges overlap, so the floor stays at 1.6x.

Both sides run all 66 bytes from the key schedule: the kernel is timed
through ``digest_from_state`` with the midstate cache bypassed, so a warm
first block cannot inflate the ratio.  The gate pins the Python kernel:
where the C kernel loaded, ``digest_from_state`` is one call into it
(``bench_digest_native.py`` gates that).
"""

from benchmarks.conftest import best_seconds_per_call
from repro.crypto.halfsiphash import HalfSipHash
from tests.crypto.test_differential import _spec_digest

#: Kernel digests/sec over spec-assembled digests/sec.
SPEEDUP_FLOOR = 1.6
KEY = 0x0706050403020100
MATERIAL = bytes(index * 37 & 0xFF for index in range(66))
REPEATS, CALLS = 5, 2000


def _best_us(fn) -> float:
    return best_seconds_per_call(fn, CALLS, REPEATS) * 1e6


def test_digest_kernel_over_spec(report, python_kernel):
    hasher = HalfSipHash()
    state = hasher.key_schedule(KEY)
    assert hasher.digest_from_state(state, MATERIAL) \
        == _spec_digest(hasher, KEY, MATERIAL)

    spec_us = _best_us(lambda: _spec_digest(hasher, KEY, MATERIAL))
    kernel_us = _best_us(lambda: hasher.digest_from_state(state, MATERIAL))
    speedup = spec_us / kernel_us
    report(f"HalfSipHash-2-4, 66 B: spec-assembled {spec_us:.1f} us, "
           f"kernel {kernel_us:.1f} us (midstate cache bypassed), "
           f"{speedup:.2f}x "
           f"(acceptance floor: {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"scalar kernel only {speedup:.2f}x the call-per-op form "
        f"(floor {SPEEDUP_FLOOR}x)")
