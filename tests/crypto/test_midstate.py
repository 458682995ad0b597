"""The HalfSipHash midstate cache, pinned against the specification.

:meth:`HalfSipHash.digest` starts every message of at least ``PREFIX``
bytes from a cached state keyed by ``(key, first PREFIX bytes)``;
:func:`repro.crypto.vectorized.digest_many` packs the same midstates
into its lanes.  The cache is admissible only if no tag bit moves, so
every test here compares both lanes with ``_spec_digest`` (a digest
assembled from ``HalfSipHash._sip_round`` in switch ALU ops, starting
from the key schedule every time) and checks the cache rules: every
prefix byte and the key are part of the cache key, a rolled key
misses, and the bound clears the cache.  The last section flips one bit
of ``hdrType`` / ``msgType`` in a signed C-DP message: the controller
and the switch must both refuse it.
"""

import random

import pytest

from repro.core.constants import P4AUTH
from repro.core.digest import DigestEngine
from repro.core.messages import (
    build_reg_read_request,
    build_reg_write_request,
    digest_material,
)
from repro.crypto import vectorized
from repro.crypto.halfsiphash import PREFIX, HalfSipHash
from repro.dataplane.externs import HashExtern
from tests.conftest import pin_lane
from tests.crypto.test_differential import _spec_digest

KEY = 0x0123456789ABCDEF
#: 0..80 bytes: below, at and above the 16-byte prefix (15, 16, 17),
#: every tail residue mod 4, and 64-byte C-DP material.
LENGTHS = range(81)


def _messages(rng, length, count, prefix=b""):
    return [(prefix + rng.randbytes(length))[:length] for _ in range(count)]


# ---------------------------------------------------------------------------
# bit-identity on both lanes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("length", LENGTHS)
def test_scalar_lane_matches_spec_cold_and_warm(length):
    rng = random.Random(0x3D00 + length)
    hasher = HalfSipHash()
    prefix = rng.randbytes(PREFIX)
    for message in _messages(rng, length, 3, prefix):
        spec = _spec_digest(hasher, KEY, message)
        assert hasher.digest(KEY, message) == spec  # cold or shared prefix
        assert hasher.digest(KEY, message) == spec  # warm


@pytest.mark.parametrize("length", LENGTHS)
def test_vector_lane_matches_spec(length):
    rng = random.Random(0x7EC0 + length)
    hasher = HalfSipHash()
    # Lanes that share a prefix and lanes that do not, in one group.
    messages = (_messages(rng, length, 3, rng.randbytes(PREFIX))
                + _messages(rng, length, 3))
    expected = [_spec_digest(hasher, KEY, m) for m in messages]
    assert vectorized.digest_many(KEY, messages, hasher) == expected
    assert vectorized.digest_many(KEY, messages, hasher) == expected
    assert vectorized.digest_many(KEY, messages[:1], hasher) == expected[:1]


def test_vector_lane_mixed_lengths_keep_input_order():
    rng = random.Random(0x0DE5)
    messages = [rng.randbytes(length) for length in (17, 3, 64, 16, 15, 64)]
    hasher = HalfSipHash()
    assert vectorized.digest_many(KEY, messages) \
        == [_spec_digest(hasher, KEY, m) for m in messages]


def test_nondefault_rounds_take_the_midstate_too():
    rng = random.Random(0x1313)
    hasher = HalfSipHash(1, 3)
    messages = _messages(rng, 64, 4, rng.randbytes(PREFIX))
    expected = [_spec_digest(hasher, KEY, m) for m in messages]
    assert [hasher.digest(KEY, m) for m in messages] == expected
    assert vectorized.digest_many(KEY, messages, hasher) == expected


@pytest.mark.parametrize("lane", ["scalar", "vector"])
def test_engine_lanes_match_spec_on_cdp_material(lane):
    engine = pin_lane(DigestEngine(), lane)
    packets = [build_reg_write_request(1, i % 16, 0xBE00 + i, i + 1)
               for i in range(6)]
    packets += [build_reg_read_request(2, i, i + 100) for i in range(4)]
    spec = HalfSipHash()
    assert engine.compute_many(KEY, packets) \
        == [_spec_digest(spec, KEY, digest_material(p)) for p in packets]


@pytest.mark.parametrize("key", [0, KEY, (1 << 64) - 1],
                         ids=["key0", "key", "key_max"])
@pytest.mark.parametrize("rounds", [(1, 1), (2, 4), (4, 8)],
                         ids=["1-1", "2-4", "4-8"])
def test_every_returned_state_is_four_32_bit_words(key, rounds):
    """``_rounds`` masks lazily and the vector lane packs cached states
    under 32 guard bits, so every state a hasher hands out must be four
    words below 2**32 (a tag, ``v1 ^ v3``, can be right while ``v0`` or
    ``v2`` carry high bits).  All-``0xFF`` material carries out of every
    add; every length 0-258 covers every tail and the wrapped length
    byte."""
    hasher = HalfSipHash(*rounds)

    def words(state):
        assert len(state) == 4 and all(0 <= v <= 0xFFFFFFFF for v in state)
        return state

    start = words(hasher.key_schedule(key))
    for length in range(259):
        material = b"\xff" * length
        last = (int.from_bytes(material[length & ~3:], "little")
                | (length & 0xFF) << 24)
        blocks = (*[0xFFFFFFFF] * (length >> 2), last, None)
        words(hasher._rounds(start, blocks))
        words(hasher._rounds((0xFFFFFFFF,) * 4, blocks))
        if length >= PREFIX:
            cached = words(hasher.midstate(key, material))
            assert hasher.digest_from_state(cached, material, PREFIX) \
                == _spec_digest(hasher, key, material)


# ---------------------------------------------------------------------------
# cache rules
# ---------------------------------------------------------------------------

def test_short_messages_bypass_the_cache():
    hasher = HalfSipHash()
    for length in range(PREFIX):
        message = bytes(range(length))
        assert hasher.digest(KEY, message) \
            == _spec_digest(hasher, KEY, message)
        # No midstate exists for it: a typed refusal, never struct.error.
        with pytest.raises(ValueError, match="midstate"):
            hasher.midstate(KEY, message)
    assert hasher.hits == hasher.misses == 0 and not hasher._midstates


def test_one_prefix_under_two_keys_is_two_entries():
    hasher = HalfSipHash()
    message = bytes(range(64))
    tags = [hasher.digest(key, message) for key in (KEY, KEY ^ 1)]
    assert tags == [_spec_digest(hasher, key, message)
                    for key in (KEY, KEY ^ 1)]
    assert tags[0] != tags[1]
    assert hasher.misses == 2 and hasher.hits == 0


def test_one_key_under_two_prefixes_is_two_entries():
    hasher = HalfSipHash()
    first = bytes(range(64))
    # The two prefixes differ in their last byte only.
    second = first[:PREFIX - 1] + bytes([first[PREFIX - 1] ^ 0x80]) \
        + first[PREFIX:]
    for message in (first, second, first, second):
        assert hasher.digest(KEY, message) \
            == _spec_digest(hasher, KEY, message)
    assert hasher.misses == 2 and hasher.hits == 2


def test_key_rollover_misses_the_cache():
    hasher = HalfSipHash()
    message = bytes(range(64))
    old = hasher.digest(KEY, message)
    assert hasher.digest(KEY, message) == old
    assert (hasher.hits, hasher.misses) == (1, 1)
    new = hasher.digest(KEY ^ 0xFFFF, message)
    assert hasher.misses == 2
    assert new != old
    assert new == _spec_digest(hasher, KEY ^ 0xFFFF, message)


def test_cache_clears_at_the_cap():
    hasher = HalfSipHash()
    hasher.KEY_CACHE_MAX = 4
    messages = [bytes([i]) * 64 for i in range(5)]
    for message in messages:
        assert hasher.digest(KEY, message) \
            == _spec_digest(hasher, KEY, message)
        assert len(hasher._midstates) <= 4
    assert len(hasher._midstates) == 1  # the fifth prefix, after the clear
    assert hasher.misses == 5
    assert hasher.digest(KEY, messages[0]) \
        == _spec_digest(hasher, KEY, messages[0])
    assert hasher.misses == 6  # evicted, so recomputed


def test_vector_lane_shares_the_scalar_cache():
    hasher = HalfSipHash()
    messages = [bytes(16) + bytes([i]) * 48 for i in range(8)]
    hasher.digest(KEY, messages[0])
    vectorized.digest_many(KEY, messages, hasher)
    assert hasher.misses == 1 and hasher.hits == 8


def test_default_vector_hasher_outlives_a_call():
    messages = [bytes(range(32))] * 2
    vectorized.digest_many(KEY, messages)
    shared = vectorized._hasher(2, 4)
    misses = shared.misses
    vectorized.digest_many(KEY, messages)
    assert shared.misses == misses


# ---------------------------------------------------------------------------
# mutant: one flipped prefix bit must fail verification on both ends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["hdrType", "msgType"])
@pytest.mark.parametrize("bit", range(8))
def test_flipped_type_bit_fails_on_controller_and_switch(field, bit):
    controller = DigestEngine()
    switch = DigestEngine(extern=HashExtern())
    packet = controller.sign(KEY, build_reg_write_request(1, 2, 0xCAFE, 7))
    # Both ends have the honest prefix's midstate cached.
    assert controller.verify(KEY, packet) and switch.verify(KEY, packet)
    packet.get(P4AUTH)[field] ^= 1 << bit
    assert not controller.verify(KEY, packet)
    assert not switch.verify(KEY, packet)
    packet.get(P4AUTH)[field] ^= 1 << bit
    assert controller.verify(KEY, packet) and switch.verify(KEY, packet)
