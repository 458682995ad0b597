"""HashExtern.compute_digest: word-width validation and invocation counting."""

import pytest

from repro.crypto.crc import Crc32
from repro.crypto.halfsiphash import HalfSipHash
from repro.dataplane.externs import HashExtern

KEY = 0x0706050403020100
FLAVOURS = ("halfsiphash", "crc32")


def test_compute_digest_matches_digest_words_and_counts():
    extern = HashExtern()
    words = [0x11223344, 0xAABBCCDD, 1]
    assert extern.compute_digest(KEY, words) \
        == HalfSipHash().digest_words(KEY, words)
    assert extern.compute_digest(KEY, [1, 2, 3], word_bits=8) \
        == HalfSipHash().digest(KEY, bytes([1, 2, 3]))
    assert extern.invocations == 2


def test_compute_digest_crc32_flavour_hashes_packed_words():
    extern = HashExtern("crc32")
    assert extern.compute_digest(KEY, [0x0201, 0x0403], word_bits=16) \
        == Crc32().compute_keyed(KEY, bytes([1, 2, 3, 4]))


@pytest.mark.parametrize("algorithm", FLAVOURS)
@pytest.mark.parametrize("word_bits", [12, 4, 1, 33])
def test_compute_digest_rejects_non_byte_widths(algorithm, word_bits):
    """A width that is not a whole number of bytes is rejected, never
    truncated (12 must not hash as 8, nor 4 as empty material)."""
    extern = HashExtern(algorithm)
    with pytest.raises(ValueError):
        extern.compute_digest(KEY, [0, 0, 0], word_bits=word_bits)
    assert extern.invocations == 0


@pytest.mark.parametrize("algorithm", FLAVOURS)
@pytest.mark.parametrize("word", [1 << 32, -1])
def test_compute_digest_rejects_words_that_do_not_fit(algorithm, word):
    """ValueError, as ``HalfSipHash.digest_words`` raises (not
    ``to_bytes``'s OverflowError), and not a counted invocation."""
    extern = HashExtern(algorithm)
    with pytest.raises(ValueError):
        extern.compute_digest(KEY, [1, word])
    assert extern.invocations == 0
