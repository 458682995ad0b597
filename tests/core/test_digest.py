"""DigestEngine: sign/verify symmetry, tamper sensitivity, accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.digest import DigestEngine
from repro.core.messages import build_reg_write_request
from repro.dataplane.externs import HashExtern

KEY = 0xA5A5A5A55A5A5A5A


def signed_message(engine, key=KEY, value=0xBEEF, seq=1):
    message = build_reg_write_request(1, 0, value, seq)
    engine.sign(key, message)
    return message


def test_sign_then_verify():
    engine = DigestEngine()
    message = signed_message(engine)
    assert engine.verify(KEY, message)


def test_wrong_key_fails():
    engine = DigestEngine()
    message = signed_message(engine)
    assert not engine.verify(KEY ^ 1, message)


def test_payload_tamper_fails():
    engine = DigestEngine()
    message = signed_message(engine)
    message.get("reg_op")["value"] = 0xDEAD
    assert not engine.verify(KEY, message)


def test_header_tamper_fails():
    engine = DigestEngine()
    message = signed_message(engine)
    message.get("p4auth")["seqNum"] = 999
    assert not engine.verify(KEY, message)


def test_digest_field_tamper_fails():
    engine = DigestEngine()
    message = signed_message(engine)
    message.get("p4auth")["digest"] ^= 1
    assert not engine.verify(KEY, message)


def test_extern_and_software_agree():
    extern_engine = DigestEngine(extern=HashExtern())
    software_engine = DigestEngine()
    message = signed_message(extern_engine)
    assert software_engine.verify(KEY, message)


def test_extern_invocations_counted():
    extern = HashExtern()
    engine = DigestEngine(extern=extern)
    message = signed_message(engine)
    engine.verify(KEY, message)
    assert extern.invocations == 2  # one sign + one verify


def test_verify_counters():
    engine = DigestEngine()
    message = signed_message(engine)
    engine.verify(KEY, message)
    engine.verify(KEY ^ 1, message)
    assert engine.verified_ok == 1
    assert engine.verified_fail == 1
    assert engine.computed == 3  # sign + 2 verifies


@pytest.mark.usefixtures("python_kernel")
class TestKeyStateFastPath:
    """The batch fast path: one schedule derivation per key, bit-identical
    tags, and no effect on the extern (data-plane) digest path."""

    def test_batch_under_one_key_derives_the_schedule_once(self):
        engine = DigestEngine()
        for seq in range(1, 33):
            message = build_reg_write_request(1, 0, 0x10 + seq, seq)
            engine.sign(KEY, message)
            assert engine.verify(KEY, message)
        assert engine.key_state_misses == 1
        assert engine.key_state_hits == 63  # 32 signs + 32 verifies - 1 miss

    def test_cached_and_cold_engines_agree(self):
        warm = DigestEngine()
        warm.compute(KEY, build_reg_write_request(1, 0, 1, 1))  # prime
        cold = DigestEngine()
        for seq in (1, 7, 0xFFFFFFFF):
            message = build_reg_write_request(2, 3, 0xCAFE, seq)
            assert warm.compute(KEY, message) == cold.compute(KEY, message)

    def test_rolled_key_is_a_cache_miss_not_a_stale_hit(self):
        engine = DigestEngine()
        message = build_reg_write_request(1, 0, 1, 1)
        old = engine.compute(KEY, message)
        new = engine.compute(KEY ^ 0xFF, message)
        assert old != new
        assert engine.key_state_misses == 2

    def test_cache_bound_resets_instead_of_growing(self):
        engine = DigestEngine()
        message = build_reg_write_request(1, 0, 1, 1)
        hasher = engine._halfsiphash
        for i in range(hasher.KEY_CACHE_MAX + 8):
            engine.compute(i, message)
        assert len(hasher._midstates) <= hasher.KEY_CACHE_MAX

    def test_extern_engines_bypass_the_cache(self):
        extern = HashExtern()
        engine = DigestEngine(extern=extern)
        for seq in (1, 2, 3):
            engine.compute(KEY, build_reg_write_request(1, 0, 1, seq))
        # Every data-plane digest still hits the hash unit (the modeled
        # PISA pipeline runs every stage for every packet).
        assert extern.invocations == 3
        assert engine.key_state_hits == engine.key_state_misses == 0


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 32) - 1))
@settings(max_examples=50, deadline=None)
def test_sign_verify_roundtrip_property(key, value, seq):
    engine = DigestEngine()
    message = build_reg_write_request(3, 1, value, seq)
    engine.sign(key, message)
    assert engine.verify(key, message)
