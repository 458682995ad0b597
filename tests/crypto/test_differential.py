"""Differential tests: repo digests vs. independent reference code.

The chaos battery's headline invariant — "a forged digest is always
rejected" — is only as strong as the digest implementations themselves,
so this module pins them against implementations that share *no* code
with ``repro.crypto``: a from-scratch HalfSipHash written directly from
the reference C (github.com/veorq/SipHash, ``halfsiphash.c``), stdlib
``zlib.crc32``, and a bit-serial (table-free) CRC-32.  1k random
(key, message) pairs each, from a fixed seed.

The last section pins the *executed* HalfSipHash kernel
(``digest_from_state``, the SipRound inlined as host integer expressions)
to the *specification* round ``HalfSipHash._sip_round`` (switch ALU ops
from ``repro.crypto.ops`` only): the feasibility claim rests on the
second, the host runs the first, and they must never differ by a bit.
"""

import ast
import inspect
import json
import random
import textwrap
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ops, vectorized
from repro.crypto.crc import Crc32, crc32
from repro.crypto.halfsiphash import HalfSipHash, halfsiphash

PAIRS = 1000
MASK32 = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# reference implementations (deliberately written differently: inline
# arithmetic, no shared helpers, bit-serial CRC instead of table-driven)
# ---------------------------------------------------------------------------

def _ref_halfsiphash(c: int, d: int, key: bytes, message: bytes) -> int:
    """HalfSipHash-c-d, transcribed from the reference C implementation."""
    assert len(key) == 8
    k0 = int.from_bytes(key[0:4], "little")
    k1 = int.from_bytes(key[4:8], "little")
    v0, v1, v2, v3 = k0, k1, 0x6C796765 ^ k0, 0x74656462 ^ k1

    def round_(v0, v1, v2, v3):
        v0 = (v0 + v1) & MASK32
        v1 = ((v1 << 5) | (v1 >> 27)) & MASK32
        v1 ^= v0
        v0 = ((v0 << 16) | (v0 >> 16)) & MASK32
        v2 = (v2 + v3) & MASK32
        v3 = ((v3 << 8) | (v3 >> 24)) & MASK32
        v3 ^= v2
        v0 = (v0 + v3) & MASK32
        v3 = ((v3 << 7) | (v3 >> 25)) & MASK32
        v3 ^= v0
        v2 = (v2 + v1) & MASK32
        v1 = ((v1 << 13) | (v1 >> 19)) & MASK32
        v1 ^= v2
        v2 = ((v2 << 16) | (v2 >> 16)) & MASK32
        return v0, v1, v2, v3

    b = (len(message) & 0xFF) << 24
    end = len(message) - (len(message) % 4)
    for i in range(0, end, 4):
        m = int.from_bytes(message[i:i + 4], "little")
        v3 ^= m
        for _ in range(c):
            v0, v1, v2, v3 = round_(v0, v1, v2, v3)
        v0 ^= m
    left = message[end:]
    for i, byte in enumerate(left):
        b |= byte << (8 * i)
    v3 ^= b
    for _ in range(c):
        v0, v1, v2, v3 = round_(v0, v1, v2, v3)
    v0 ^= b
    v2 ^= 0xFF
    for _ in range(d):
        v0, v1, v2, v3 = round_(v0, v1, v2, v3)
    return (v1 ^ v3) & MASK32


def _ref_crc32_bitserial(data: bytes) -> int:
    """IEEE CRC-32, one bit at a time — no lookup table anywhere."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _random_pairs(seed: int):
    rng = random.Random(seed)
    for _ in range(PAIRS):
        key = rng.getrandbits(64)
        message = rng.randbytes(rng.randrange(0, 64))
        yield key, message


# ---------------------------------------------------------------------------
# differential sweeps
# ---------------------------------------------------------------------------

def test_halfsiphash_matches_reference_over_1k_pairs():
    for key, message in _random_pairs(0x51B0A57):
        expected = _ref_halfsiphash(2, 4, key.to_bytes(8, "little"), message)
        assert halfsiphash(key, message) == expected, \
            f"divergence at key={key:#x} msg={message.hex()}"


def test_halfsiphash_13_matches_reference():
    """The lighter HalfSipHash-1-3 parameterization diverges from 2-4 but
    must still track the reference at its own (c, d)."""
    ours = HalfSipHash(compression_rounds=1, finalization_rounds=3)
    for key, message in _random_pairs(0x13):
        expected = _ref_halfsiphash(1, 3, key.to_bytes(8, "little"), message)
        assert ours.digest(key, message) == expected


def test_crc32_matches_zlib_over_1k_pairs():
    for _key, message in _random_pairs(0xC4C32):
        assert crc32(message) == zlib.crc32(message) & MASK32


def test_crc32_matches_bitserial_reference():
    for _key, message in _random_pairs(0xB17):
        assert crc32(message) == _ref_crc32_bitserial(message)


def test_keyed_crc_is_crc_of_key_prefixed_message():
    """compute_keyed must equal an independent CRC over key || message —
    the exact bytes the P4 program feeds the hash unit."""
    engine = Crc32()
    for key, message in _random_pairs(0x6E7):
        expected = zlib.crc32(key.to_bytes(8, "little") + message) & MASK32
        assert engine.compute_keyed(key, message) == expected


def test_halfsiphash_reference_vectors():
    """Spot-check the reference itself against published test vectors
    (veorq/SipHash ``vectors.h``, hsip32 with key 00..07)."""
    key = bytes(range(8))
    message = bytes(range(8))
    # First entries of the HalfSipHash-2-4 32-bit vector table.
    expected = [0x5B9F35A9, 0xB85A4727, 0x03A662FA, 0x04E7FE8A,
                0x89466E2A, 0x69B6FAC5, 0x23FC6358, 0xC563CF8B,
                0x8F84B8D0]
    for length in range(9):
        assert _ref_halfsiphash(2, 4, key, message[:length]) \
            == expected[length]
        assert halfsiphash(int.from_bytes(key, "little"),
                           message[:length]) == expected[length]


# ---------------------------------------------------------------------------
# executed kernel vs. the specification round
# ---------------------------------------------------------------------------

ROUND_COUNTS = ((2, 4), (1, 3), (3, 5), (1, 1))
EDGE_KEYS = (0, (1 << 64) - 1, 0x0706050403020100)
#: Every tail residue, the ``length & 0xFF`` wrap at 256, and long inputs.
KERNEL_LENGTHS = (*range(258), 258, 511, 512, 1024)
SRC_ROOT = Path(inspect.getsourcefile(ops)).parents[1]


def _spec_digest(hasher: HalfSipHash, key: int, message: bytes) -> int:
    """A whole digest assembled from ``HalfSipHash._sip_round`` and
    ``ops.xor32`` — the digest as the switch would compute it."""
    v0, v1, v2, v3 = hasher.key_schedule(key)
    full = len(message) - len(message) % 4
    blocks = [int.from_bytes(message[i:i + 4], "little")
              for i in range(0, full, 4)]
    blocks.append(int.from_bytes(message[full:], "little")
                  | (len(message) & 0xFF) << 24)
    for block in blocks:
        v3 = ops.xor32(v3, block)
        for _ in range(hasher.compression_rounds):
            v0, v1, v2, v3 = HalfSipHash._sip_round(v0, v1, v2, v3)
        v0 = ops.xor32(v0, block)
    v2 = ops.xor32(v2, 0xFF)
    for _ in range(hasher.finalization_rounds):
        v0, v1, v2, v3 = HalfSipHash._sip_round(v0, v1, v2, v3)
    return ops.xor32(v1, v3)


def _check_kernel(c: int, d: int, key: int, message: bytes) -> None:
    hasher = HalfSipHash(c, d)
    tag = hasher.digest_from_state(hasher.key_schedule(key), message)
    where = f"c={c} d={d} key={key:#x} len={len(message)}"
    assert tag == _spec_digest(hasher, key, message), where
    assert tag == _ref_halfsiphash(c, d, key.to_bytes(8, "little"),
                                   message), where


@pytest.mark.parametrize("c,d", ROUND_COUNTS)
def test_kernel_matches_spec_and_reference_at_every_length(c, d):
    rng = random.Random(0x5BEC ^ (c << 8) ^ d)
    for index, length in enumerate(KERNEL_LENGTHS):
        _check_kernel(c, d, EDGE_KEYS[index % len(EDGE_KEYS)],
                      rng.randbytes(length))


@settings(max_examples=200, deadline=None)
@given(rounds=st.sampled_from(ROUND_COUNTS),
       key=st.one_of(st.sampled_from(EDGE_KEYS),
                     st.integers(0, (1 << 64) - 1)),
       length=st.sampled_from(KERNEL_LENGTHS), data=st.data())
def test_property_kernel_matches_spec_and_reference(rounds, key, length, data):
    message = data.draw(st.binary(min_size=length, max_size=length))
    _check_kernel(*rounds, key, message)


def test_kernel_and_spec_match_kat_corpus():
    """Both forms against the pinned 106-vector corpus (2-4 and 1-3) —
    immune to a bug shared by every live implementation."""
    with (Path(__file__).parent / "vectors_halfsiphash.json").open() as fh:
        vectors = json.load(fh)["vectors"]
    assert {(v["c"], v["d"]) for v in vectors} == {(2, 4), (1, 3)}
    for vec in vectors:
        hasher = HalfSipHash(vec["c"], vec["d"])
        key = int.from_bytes(bytes.fromhex(vec["key"]), "little")
        message = bytes.fromhex(vec["msg"])
        assert hasher.digest(key, message) == vec["tag"]
        assert _spec_digest(hasher, key, message) == vec["tag"]


def test_kernel_accepts_any_bytes_like_message():
    hasher = HalfSipHash()
    state = hasher.key_schedule(EDGE_KEYS[2])
    for length in (0, 1, 3, 4, 5, 66, 257):
        message = bytes(index * 7 & 0xFF for index in range(length))
        tag = hasher.digest_from_state(state, message)
        assert hasher.digest_from_state(state, bytearray(message)) == tag
        assert hasher.digest_from_state(state, memoryview(message)) == tag
        # A sliced view exercises a non-zero buffer offset.
        padded = memoryview(b"\xAA" + message + b"\xBB")
        assert hasher.digest_from_state(state, padded[1:-1]) == tag


@pytest.mark.parametrize("c,d", [(1, 3), (2, 4)])
def test_kernel_matches_vector_lane_on_one_batch(c, d):
    rng = random.Random(0xBA7C)
    hasher = HalfSipHash(c, d)
    state = hasher.key_schedule(rng.getrandbits(64))
    batch = [rng.randbytes(length) for length in KERNEL_LENGTHS]
    assert vectorized.digest_many_from_state([state] * len(batch), batch,
                                             c, d) \
        == [hasher.digest_from_state(state, m) for m in batch]


def test_specification_round_uses_only_switch_alu_ops():
    """The feasibility spec cannot drift into host idiom: every statement
    of ``_sip_round`` is an assignment from add32/rotl32/xor32, and
    nothing in ``src/`` executes it in place of the kernel."""
    tree = ast.parse(textwrap.dedent(
        inspect.getsource(HalfSipHash._sip_round)))
    nodes = list(ast.walk(tree))
    assert not [n for n in nodes
                if isinstance(n, (ast.BinOp, ast.AugAssign, ast.UnaryOp,
                                  ast.For, ast.While, ast.If))]
    calls = [n.func.id for n in nodes if isinstance(n, ast.Call)]
    assert len(calls) == 14
    assert set(calls) == {"add32", "rotl32", "xor32"}
    for name in set(calls):
        assert HalfSipHash._sip_round.__globals__[name].__module__ \
            == ops.__name__
    callers = [path for path in SRC_ROOT.rglob("*.py")
               if "_sip_round(" in path.read_text().replace(
                   "def _sip_round(", "")]
    assert callers == []
