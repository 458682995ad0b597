"""DigestEngine batch lanes: selection, equivalence, cache discipline.

The batch size alone picks the lane.  Tests pin an engine to one lane
with ``tests.conftest.pin_lane``, which moves its crossover.  The batch
API (`compute_many`/`sign_many`/`verify_many`) must be a pure
host-CPU optimization: same tags as the per-message path on every lane,
same hash-unit invocation accounting on the extern path, and the same
midstate cache rules — :attr:`HalfSipHash.KEY_CACHE_MAX` eviction
and rollover auto-miss apply to the vector lane because both lanes
share the engine hasher's one cache (the regression this file pins).
"""

import pytest

from repro.core.constants import P4AUTH
from repro.core.digest import DigestEngine
from repro.core.messages import build_reg_write_request
from repro.dataplane.externs import HashExtern
from tests.conftest import pin_lane

KEY = 0xA5A5A5A55A5A5A5A


def batch(count, start_seq=1):
    return [build_reg_write_request(1, i % 16, 0xBE00 + i, start_seq + i)
            for i in range(count)]


# ---------------------------------------------------------------------------
# lane selection
# ---------------------------------------------------------------------------

def test_invalid_lane_rejected():
    """No lane is a constructor argument: the batch size picks it."""
    with pytest.raises(TypeError):
        DigestEngine(lane="turbo")


def test_auto_lane_crossover_at_threshold():
    engine = DigestEngine()
    assert engine.lane_for(engine.VECTOR_THRESHOLD - 1) == "scalar"
    assert engine.lane_for(engine.VECTOR_THRESHOLD) == "vector"
    assert engine.lane_for(4096) == "vector"


def test_forced_lanes_ignore_threshold():
    """``pin_lane`` holds whatever the batch size."""
    assert pin_lane(DigestEngine(), "vector").lane_for(1) == "vector"
    assert pin_lane(DigestEngine(), "scalar").lane_for(4096) == "scalar"


def test_custom_threshold_respected():
    """The crossover is the class constant, not a constructor knob: a
    subclass that measured a different one overrides it there."""
    class Engine(DigestEngine):
        VECTOR_THRESHOLD = 4

    engine = Engine()
    assert engine.lane_for(3) == "scalar"
    assert engine.lane_for(4) == "vector"
    with pytest.raises(TypeError):
        DigestEngine(vector_threshold=4)


def test_extern_engine_reports_extern_lane():
    engine = DigestEngine(extern=HashExtern())
    assert engine.lane_for(4096) == "extern"


# ---------------------------------------------------------------------------
# batch/scalar equivalence (every lane)
# ---------------------------------------------------------------------------

# One digest, one parameter value: the engine had a crc32 flavour when
# this test was written, and the ``halfsiphash`` suffix keeps its node ids.
@pytest.mark.parametrize("_algorithm", ["halfsiphash"])
@pytest.mark.parametrize("lane", ["scalar", "vector"])
@pytest.mark.parametrize("count", [1, 2, 31, 32, 33, 100])
def test_compute_many_matches_compute(_algorithm, lane, count):
    reference = DigestEngine()
    engine = pin_lane(DigestEngine(), lane)
    packets = batch(count)
    assert engine.compute_many(KEY, packets) \
        == [reference.compute(KEY, p) for p in packets]


@pytest.mark.parametrize("lane", ["scalar", "vector"])
def test_sign_many_then_verify_each(lane):
    signer = pin_lane(DigestEngine(), lane)
    verifier = DigestEngine()
    packets = signer.sign_many(KEY, batch(40))
    assert all(verifier.verify(KEY, p) for p in packets)


@pytest.mark.parametrize("lane", ["scalar", "vector"])
def test_sign_each_then_verify_many(lane):
    signer = DigestEngine()
    verifier = pin_lane(DigestEngine(), lane)
    packets = batch(40)
    for packet in packets:
        signer.sign(KEY, packet)
    assert verifier.verify_many(KEY, packets) == [True] * 40
    assert verifier.verified_ok == 40


def test_verify_many_flags_exactly_the_tampered_packets():
    engine = pin_lane(DigestEngine(), "vector")
    packets = engine.sign_many(KEY, batch(40))
    for index in (0, 7, 39):
        packets[index].get("reg_op")["value"] ^= 1
    verdicts = engine.verify_many(KEY, packets)
    assert [i for i, ok in enumerate(verdicts) if not ok] == [0, 7, 39]
    assert engine.verified_fail == 3
    assert engine.verified_ok == 37


def test_empty_batch_noops():
    engine = pin_lane(DigestEngine(), "vector")
    assert engine.compute_many(KEY, []) == []
    assert engine.sign_many(KEY, []) == []
    assert engine.verify_many(KEY, []) == []
    assert engine.computed == 0


def test_extern_compute_many_counts_per_packet_invocations():
    """The extern path must charge one hash-unit invocation per packet —
    batching is a host optimization, never a modeled-hardware discount."""
    extern = HashExtern()
    engine = DigestEngine(extern=extern)
    packets = batch(17)
    expected = [DigestEngine(extern=HashExtern()).compute(KEY, p)
                for p in packets]
    assert engine.compute_many(KEY, packets) == expected
    assert extern.invocations == 17


def test_lane_counters_track_batches_and_messages():
    engine = DigestEngine()
    engine.compute_many(KEY, batch(engine.VECTOR_THRESHOLD - 1))
    engine.compute_many(KEY, batch(engine.VECTOR_THRESHOLD + 8))
    assert engine.scalar_batches == 1
    assert engine.scalar_messages == engine.VECTOR_THRESHOLD - 1
    assert engine.vector_batches == 1
    assert engine.vector_messages == engine.VECTOR_THRESHOLD + 8
    forced = pin_lane(DigestEngine(), "vector")
    forced.compute_many(KEY, batch(3))
    assert forced.vector_batches == 1
    assert forced.vector_messages == 3


# ---------------------------------------------------------------------------
# midstate cache: shared across lanes, bounded, rollover-correct
# ---------------------------------------------------------------------------

def test_vector_lane_uses_shared_schedule_cache():
    engine = pin_lane(DigestEngine(), "vector")
    engine.compute(KEY, batch(1)[0])
    assert engine.key_state_misses == 1
    engine.compute_many(KEY, batch(50))
    # The batch reused the scalar path's cached schedule: no second miss.
    assert engine.key_state_misses == 1
    assert engine.key_state_hits >= 1


def test_key_cache_eviction_applies_to_vector_lane():
    """Regression: KEY_CACHE_MAX must bound the cache no matter which
    lane populated it — churning keys through sign_many must not grow
    the cache past the cap."""
    engine = pin_lane(DigestEngine(), "vector")
    engine._halfsiphash.KEY_CACHE_MAX = 8
    for key in range(1, 30):
        engine.sign_many(key, batch(2))
        assert len(engine._halfsiphash._midstates) <= 8
    assert engine.key_state_misses == 29


def test_key_rollover_between_batches_auto_misses():
    """A rolled master key must re-derive the schedule (the cache is
    keyed by key *value*) and old-key signatures must stop verifying."""
    engine = pin_lane(DigestEngine(), "vector")
    old_key, new_key = KEY, KEY ^ 0xFFFF
    packets = engine.sign_many(old_key, batch(40))
    misses_before = engine.key_state_misses
    assert engine.verify_many(new_key, packets) == [False] * 40
    assert engine.key_state_misses == misses_before + 1  # new schedule
    resigned = engine.sign_many(new_key, batch(40))
    assert engine.verify_many(new_key, resigned) == [True] * 40
    assert engine.key_state_misses == misses_before + 1  # now cached


def test_rollover_mid_stream_signs_with_distinct_tags():
    """Same material under old vs new key must produce different tags —
    a stale cached schedule would silently reuse the old key."""
    engine = pin_lane(DigestEngine(), "vector")
    old = [p.get(P4AUTH)["digest"]
           for p in engine.sign_many(KEY, batch(40))]
    new = [p.get(P4AUTH)["digest"]
           for p in engine.sign_many(KEY ^ 1, batch(40))]
    assert old != new
