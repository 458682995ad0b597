"""HashExtern.compute_digest: word-width validation and invocation counting."""

import pytest

from repro.crypto.halfsiphash import HalfSipHash
from repro.dataplane.externs import HashExtern

KEY = 0x0706050403020100
#: One digest, one parameter value.  The extern had a crc32 flavour when
#: these tests were written; the ``halfsiphash`` suffix keeps their node
#: ids.
FLAVOURS = ("halfsiphash",)


def test_compute_digest_matches_digest_words_and_counts():
    extern = HashExtern()
    words = [0x11223344, 0xAABBCCDD, 1]
    assert extern.compute_digest(KEY, words) \
        == HalfSipHash().digest_words(KEY, words)
    assert extern.compute_digest(KEY, [1, 2, 3], word_bits=8) \
        == HalfSipHash().digest(KEY, bytes([1, 2, 3]))
    assert extern.invocations == 2


@pytest.mark.parametrize("_flavour", FLAVOURS)
@pytest.mark.parametrize("word_bits", [12, 4, 1, 33])
def test_compute_digest_rejects_non_byte_widths(_flavour, word_bits):
    """A width that is not a whole number of bytes is rejected, never
    truncated (12 must not hash as 8, nor 4 as empty material)."""
    extern = HashExtern()
    with pytest.raises(ValueError):
        extern.compute_digest(KEY, [0, 0, 0], word_bits=word_bits)
    assert extern.invocations == 0


@pytest.mark.parametrize("_flavour", FLAVOURS)
@pytest.mark.parametrize("word", [1 << 32, -1])
def test_compute_digest_rejects_words_that_do_not_fit(_flavour, word):
    """ValueError, as ``HalfSipHash.digest_words`` raises (not
    ``to_bytes``'s OverflowError), and not a counted invocation."""
    extern = HashExtern()
    with pytest.raises(ValueError):
        extern.compute_digest(KEY, [1, word])
    assert extern.invocations == 0
