"""Modified DH: the shared-secret property and input validation."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.crypto.modified_dh import DhParameters, dh_public, dh_shared

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
NONZERO64 = st.integers(min_value=1, max_value=(1 << 64) - 1)


@given(U64, U64)
def test_both_sides_derive_same_secret(r1, r2):
    params = DhParameters()
    pk1 = dh_public(params, r1)
    pk2 = dh_public(params, r2)
    assert dh_shared(params, r1, pk2) == dh_shared(params, r2, pk1)


@given(NONZERO64, NONZERO64, U64, U64)
def test_shared_secret_property_holds_for_any_group(prime, generator, r1, r2):
    # The algebra holds for any (P, G), not only the compiled-in pair.
    params = SimpleNamespace(prime=prime, generator=generator)
    assert (dh_shared(params, r1, dh_public(params, r2))
            == dh_shared(params, r2, dh_public(params, r1)))


@given(U64)
def test_public_key_is_64_bit(r):
    assert 0 <= dh_public(DhParameters(), r) < (1 << 64)


def test_public_key_hides_private_random():
    # PK = (G AND R) XOR (P AND R): bits of R outside G|P never appear.
    params = SimpleNamespace(prime=0x0F, generator=0xF0)
    r = 0xFFFFFFFFFFFFFF00
    assert dh_public(params, r) == ((0xF0 & r) ^ (0x0F & r))


def test_invalid_private_random_rejected():
    params = DhParameters()
    with pytest.raises(ValueError):
        dh_public(params, 1 << 64)
    with pytest.raises(ValueError):
        dh_shared(params, -1, 0)
    with pytest.raises(ValueError):
        dh_shared(params, 0, 1 << 64)


@given(U64, U64)
def test_different_randoms_usually_different_publics(r1, r2):
    # AND/XOR algebra is lossy, but distinct randoms sharing no masked
    # bits must map to distinct public keys when they differ under G|P.
    params = DhParameters()
    mask = params.generator | params.prime
    if (r1 & mask) != (r2 & mask):
        pk1, pk2 = dh_public(params, r1), dh_public(params, r2)
        # Equality is possible only where G and P overlap; assert the
        # well-definedness, not injectivity.
        assert 0 <= pk1 < (1 << 64) and 0 <= pk2 < (1 << 64)
