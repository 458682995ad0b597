"""Differential battery for the vectorized digest lanes.

The vector lane is only admissible if it is *bit-identical* to the
scalar lane — Eqn 4 tags are wire bytes, so a single divergent lane
would make signatures verify or fail depending on host batch size.
This module pins :mod:`repro.crypto.vectorized` three independent ways:

- against the repo's scalar classes (:class:`HalfSipHash`,
  :class:`Crc32`) — the lane-equivalence contract;
- against the from-scratch references in
  :mod:`tests.crypto.test_differential` (transcribed C HalfSipHash,
  bit-serial CRC) and stdlib ``zlib.crc32`` — no shared code at all;
- against the pinned known-answer corpus
  ``tests/crypto/vectors_halfsiphash.json`` — immune to a bug that
  lands in every live implementation at once.

Batch sizes straddle the ``DigestEngine.VECTOR_THRESHOLD`` crossover
(1, 2; 31, 32, 33 straddled the numpy lane's) and go to 4096; message
lengths cover 0..257 bytes — empty input, every tail residue mod 4, and
the 256-boundary where the ``len & 0xFF`` final-word byte wraps.

The lanes are 64-bit strides of one ``int`` (32 value bits under 32
guard bits), so the last section pins them where that layout can fail:
per-lane states over 1-300 lanes, saturated words whose carries and
rotate spills must die in the guard bits, and input order across
length groups.
"""

import json
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import vectorized
from repro.crypto.crc import Crc32
from repro.crypto.halfsiphash import HalfSipHash
from tests.crypto.test_differential import (
    _ref_crc32_bitserial,
    _ref_halfsiphash,
)

MASK32 = 0xFFFFFFFF
#: Batch sizes straddling DigestEngine.VECTOR_THRESHOLD (2; 32 when
#: the lane was numpy) plus the bench-scale point.
BATCH_SIZES = (1, 2, 31, 32, 33, 4096)
#: Message lengths covering 0, every residue mod 4, and the 255/256/257
#: boundary where the length byte in the final word wraps.
EDGE_LENGTHS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 33,
                63, 64, 65, 127, 128, 255, 256, 257)

VECTORS_PATH = Path(__file__).parent / "vectors_halfsiphash.json"

#: One backend, one parameter value.  The lane was numpy when these
#: tests were written; the ``[numpy]`` suffix keeps their node ids
#: stable for whatever tracks the suite by id.
NUMPY_LANE = pytest.mark.parametrize("_lane", ["numpy"])


def _messages(rng: random.Random, count: int) -> list:
    return [rng.randbytes(rng.choice(EDGE_LENGTHS)) for _ in range(count)]


# ---------------------------------------------------------------------------
# pinned known-answer corpus
# ---------------------------------------------------------------------------

def _load_vectors():
    with VECTORS_PATH.open() as fh:
        return json.load(fh)["vectors"]


@NUMPY_LANE
def test_kat_corpus_digest_many(_lane):
    """Every pinned vector, replayed through the batch API per (c, d)."""
    by_params = {}
    for vec in _load_vectors():
        by_params.setdefault((vec["c"], vec["d"]), []).append(vec)
    assert sum(len(v) for v in by_params.values()) >= 100
    for (c, d), vecs in by_params.items():
        for vec in vecs:
            key = int.from_bytes(bytes.fromhex(vec["key"]), "little")
            tags = vectorized.digest_many(
                key, [bytes.fromhex(vec["msg"])], HalfSipHash(c, d))
            assert tags == [vec["tag"]], \
                f"KAT mismatch c={c} d={d} key={vec['key']} msg={vec['msg']}"


@NUMPY_LANE
def test_kat_corpus_as_one_batch(_lane):
    """The same corpus as whole batches — exercises length-grouping."""
    by_params = {}
    for vec in _load_vectors():
        by_params.setdefault((vec["c"], vec["d"]), []).append(vec)
    for (c, d), vecs in by_params.items():
        key0 = vecs[0]["key"]
        same_key = [v for v in vecs if v["key"] == key0]
        key = int.from_bytes(bytes.fromhex(key0), "little")
        tags = vectorized.digest_many(
            key, [bytes.fromhex(v["msg"]) for v in same_key],
            HalfSipHash(c, d))
        assert tags == [v["tag"] for v in same_key]


def test_kat_corpus_scalar_class_agrees():
    """The scalar classes themselves still match the pinned corpus."""
    for vec in _load_vectors():
        engine = HalfSipHash(compression_rounds=vec["c"],
                             finalization_rounds=vec["d"])
        key = int.from_bytes(bytes.fromhex(vec["key"]), "little")
        assert engine.digest(key, bytes.fromhex(vec["msg"])) == vec["tag"]


# ---------------------------------------------------------------------------
# vector lane vs scalar classes (the lane-equivalence contract)
# ---------------------------------------------------------------------------

@NUMPY_LANE
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_digest_many_matches_scalar_class(batch, _lane):
    rng = random.Random(0xD1F0 + batch)
    engine = HalfSipHash()
    key = rng.getrandbits(64)
    messages = _messages(rng, batch)
    tags = vectorized.digest_many(key, messages)
    assert tags == [engine.digest(key, m) for m in messages]


@NUMPY_LANE
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_digest_many_from_state_matches_scalar_class(batch, _lane):
    rng = random.Random(0x57A7E + batch)
    engine = HalfSipHash()
    key = rng.getrandbits(64)
    state = engine.key_schedule(key)
    messages = _messages(rng, batch)
    tags = vectorized.digest_many_from_state([state] * batch, messages)
    assert tags == [engine.digest_from_state(state, m) for m in messages]


@NUMPY_LANE
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_crc32_many_keyed_matches_scalar_class(batch, _lane):
    rng = random.Random(0xC4C + batch)
    engine = Crc32()
    key = rng.getrandbits(64)
    datas = _messages(rng, batch)
    tags = vectorized.crc32_many_keyed(key, datas)
    assert tags == [engine.compute_keyed(key, d) for d in datas]


@NUMPY_LANE
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_crc32_many_matches_scalar_class(batch, _lane):
    rng = random.Random(0x32 + batch)
    engine = Crc32()
    datas = _messages(rng, batch)
    tags = vectorized.crc32_many(datas)
    assert tags == [engine.compute(d) for d in datas]


@NUMPY_LANE
def test_nondefault_rounds_match_scalar_class(_lane):
    """HalfSipHash-1-3 (the lighter parameterization) must track too."""
    rng = random.Random(0x13)
    engine = HalfSipHash(compression_rounds=1, finalization_rounds=3)
    key = rng.getrandbits(64)
    messages = _messages(rng, 64)
    tags = vectorized.digest_many(key, messages, HalfSipHash(1, 3))
    assert tags == [engine.digest(key, m) for m in messages]


@NUMPY_LANE
def test_empty_batch_is_empty(_lane):
    assert vectorized.digest_many(1, []) == []
    assert vectorized.crc32_many([]) == []
    assert vectorized.crc32_many_keyed(1, []) == []


@NUMPY_LANE
def test_all_edge_lengths_in_one_batch(_lane):
    """One batch containing every edge length — grouping must reassemble
    results in submission order, not length order."""
    rng = random.Random(0x1E56)
    engine = HalfSipHash()
    crc = Crc32()
    key = rng.getrandbits(64)
    messages = [rng.randbytes(length) for length in EDGE_LENGTHS]
    assert vectorized.digest_many(key, messages) \
        == [engine.digest(key, m) for m in messages]
    assert vectorized.crc32_many_keyed(key, messages) \
        == [crc.compute_keyed(key, m) for m in messages]


# ---------------------------------------------------------------------------
# vector lane vs the independent references (no shared code)
# ---------------------------------------------------------------------------

@NUMPY_LANE
def test_digest_many_matches_independent_reference(_lane):
    rng = random.Random(0x5EF)
    key = rng.getrandbits(64)
    messages = _messages(rng, 200)
    tags = vectorized.digest_many(key, messages)
    key_bytes = key.to_bytes(8, "little")
    assert tags == [_ref_halfsiphash(2, 4, key_bytes, m) for m in messages]


@NUMPY_LANE
def test_crc32_many_matches_zlib_and_bitserial(_lane):
    rng = random.Random(0x21B)
    datas = _messages(rng, 200)
    tags = vectorized.crc32_many(datas)
    assert tags == [zlib.crc32(d) & MASK32 for d in datas]
    assert tags == [_ref_crc32_bitserial(d) for d in datas]


@NUMPY_LANE
def test_crc32_many_keyed_is_crc_of_key_prefixed_data(_lane):
    """The keyed form must equal an independent CRC over key || data —
    the exact byte stream the P4 program feeds the hash unit."""
    rng = random.Random(0x6E7)
    key = rng.getrandbits(64)
    datas = _messages(rng, 200)
    tags = vectorized.crc32_many_keyed(key, datas)
    prefix = key.to_bytes(8, "little")
    assert tags == [zlib.crc32(prefix + d) & MASK32 for d in datas]


# ---------------------------------------------------------------------------
# hypothesis property sweeps
# ---------------------------------------------------------------------------

_keys = st.integers(min_value=0, max_value=(1 << 64) - 1)
_message_lists = st.lists(st.binary(min_size=0, max_size=257),
                          min_size=0, max_size=40)


@NUMPY_LANE
@settings(max_examples=60, deadline=None)
@given(key=_keys, messages=_message_lists)
def test_property_digest_many_bit_identical(_lane, key, messages):
    engine = HalfSipHash()
    assert vectorized.digest_many(key, messages) \
        == [engine.digest(key, m) for m in messages]


@NUMPY_LANE
@settings(max_examples=60, deadline=None)
@given(key=_keys, messages=_message_lists)
def test_property_digest_many_matches_reference(_lane, key,
                                                messages):
    key_bytes = key.to_bytes(8, "little")
    assert vectorized.digest_many(key, messages) \
        == [_ref_halfsiphash(2, 4, key_bytes, m) for m in messages]


@NUMPY_LANE
@settings(max_examples=60, deadline=None)
@given(key=_keys, datas=_message_lists)
def test_property_crc32_many_keyed_bit_identical(_lane, key, datas):
    engine = Crc32()
    assert vectorized.crc32_many_keyed(key, datas) \
        == [engine.compute_keyed(key, d) for d in datas]


@NUMPY_LANE
@settings(max_examples=60, deadline=None)
@given(datas=_message_lists)
def test_property_crc32_many_matches_zlib(_lane, datas):
    assert vectorized.crc32_many(datas) \
        == [zlib.crc32(d) & MASK32 for d in datas]


# ---------------------------------------------------------------------------
# the integer lanes, where the layout can fail
# ---------------------------------------------------------------------------

def _random_lanes(rng: random.Random, lengths):
    """A state and a message of the given length per lane."""
    return ([tuple(rng.getrandbits(32) for _ in range(4)) for _ in lengths],
            [rng.randbytes(length) for length in lengths])


@settings(max_examples=60, deadline=None)
@given(lane_count=st.integers(min_value=1, max_value=300),
       lengths=st.lists(st.integers(min_value=0, max_value=300),
                        min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
       rounds=st.sampled_from([(1, 1), (2, 4), (4, 8)]))
def test_property_per_lane_states_match_scalar_kernel(lane_count, lengths,
                                                      seed, rounds):
    """1-300 lanes, a state each, spread over a few lengths from 0-300:
    groups of many lanes and groups of one in the same call."""
    rng = random.Random(seed)
    states, messages = _random_lanes(
        rng, [rng.choice(lengths) for _ in range(lane_count)])
    c, d = rounds
    engine = HalfSipHash(c, d)
    assert vectorized.digest_many_from_state(states, messages, c, d) \
        == [engine.digest_from_state(state, message)
            for state, message in zip(states, messages)]


@pytest.mark.parametrize("length", (0, 1, 3, 4, 7, 64, 255, 256, 257, 300))
def test_every_tail_and_length_byte_in_a_full_group(length):
    """Every ``len % 4`` tail, the empty message and the wrapped length
    byte, each as a group of its own (Hypothesis may not draw them)."""
    engine = HalfSipHash()
    states, messages = _random_lanes(random.Random(0x7A11 + length),
                                     [length] * 9)
    assert vectorized.digest_many_from_state(states, messages) \
        == [engine.digest_from_state(s, m) for s, m in zip(states, messages)]


_SATURATED = ((MASK32,) * 4, b"\xff" * 64)
_ZERO = ((0,) * 4, bytes(64))


@pytest.mark.parametrize("lanes", [
    [_SATURATED] * 2, [_SATURATED] * 7, [_SATURATED] * 300,
    [_SATURATED, _ZERO] * 4, [_ZERO, _SATURATED] * 4 + [_ZERO],
], ids=["sat2", "sat7", "sat300", "sat_zero", "zero_sat"])
@pytest.mark.parametrize("rounds", [(1, 1), (2, 4), (4, 8)],
                         ids=["1-1", "2-4", "4-8"])
def test_saturated_words_die_in_the_guard_bits(lanes, rounds):
    """Every state and message word ``0xFFFFFFFF``: each add carries out
    of bit 31 and each rotate spills 32 set bits, in every lane or in
    every other lane beside an all-zero neighbour whose tag any leaked
    bit changes.  Catches a 32-bit stride (no guard bits: the carry
    becomes the next lane's bit 0, the rotate pulls the neighbour's
    high bits in) and a mask that leaves the guard bits set (the next
    ``>>`` rotates the stale carry back into value bits)."""
    c, d = rounds
    engine = HalfSipHash(c, d)
    states = [state for state, _message in lanes]
    messages = [message for _state, message in lanes]
    assert vectorized.digest_many_from_state(states, messages, c, d) \
        == [engine.digest_from_state(s, m) for s, m in lanes]


def test_mixed_lengths_return_tags_in_input_order():
    """Lengths interleaved so that group order differs from input
    order, a state per lane so that no two lanes share a tag, two or
    more lanes in every group but one.  Catches tags written back in
    group order, states or messages gathered under the wrong positions,
    and, like the saturation test, a stride or mask mutation, which
    makes the lanes of a group bleed into each other."""
    states, messages = _random_lanes(
        random.Random(0x0DE5), [5, 64, 5, 0, 64, 300, 0, 257, 300, 64, 5, 0])
    engine = HalfSipHash()
    expected = [engine.digest_from_state(s, m)
                for s, m in zip(states, messages)]
    assert len(set(expected)) == len(expected)
    assert vectorized.digest_many_from_state(states, messages) == expected


def test_one_state_per_message_is_required():
    with pytest.raises(ValueError):
        vectorized.digest_many_from_state([(1, 2, 3, 4)], [b"a", b"b"])
