"""XorShift PRNG: determinism, ranges, forking."""

import pytest

from repro.crypto.prng import XorShiftPrng


def test_deterministic_given_seed():
    a = [XorShiftPrng(42).next64() for _ in range(10)]
    b = [XorShiftPrng(42).next64() for _ in range(10)]
    assert a == b


def test_different_seeds_diverge():
    assert XorShiftPrng(1).next64() != XorShiftPrng(2).next64()


def test_zero_seed_is_remapped():
    # xorshift's all-zero fixed point must not freeze the generator.
    prng = XorShiftPrng(0)
    assert prng.next64() != 0
    assert prng.next64() != prng.next64()


def test_next32_range():
    prng = XorShiftPrng(7)
    for _ in range(100):
        assert 0 <= prng.next_bits(32) < (1 << 32)


def test_next_bits_ranges():
    prng = XorShiftPrng(7)
    for bits in (1, 8, 16, 31, 64):
        for _ in range(20):
            assert 0 <= prng.next_bits(bits) < (1 << bits)


def test_next_bits_validation():
    prng = XorShiftPrng(7)
    with pytest.raises(ValueError):
        prng.next_bits(0)
    with pytest.raises(ValueError):
        prng.next_bits(65)


def test_uniform_in_unit_interval():
    prng = XorShiftPrng(7)
    samples = [prng.uniform() for _ in range(1000)]
    assert all(0.0 <= s < 1.0 for s in samples)
    assert 0.4 < sum(samples) / len(samples) < 0.6


def test_fork_produces_independent_stream():
    parent = XorShiftPrng(42)
    child = parent.fork()
    assert parent.next64() != child.next64()


def test_no_short_cycles():
    prng = XorShiftPrng(3)
    seen = {prng.next64() for _ in range(10_000)}
    assert len(seen) == 10_000
