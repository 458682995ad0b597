"""Property-based shardmap checks (hypothesis).

The example-based suite (``test_shardmap.py``) pins concrete numbers;
these properties state the invariants the region/worker sharding layers
lean on, over arbitrary fleets:

- assignment is a pure function of the *set* of switches (input order
  and duplicates of the map object don't matter);
- bounded load always holds, and the assignment is an exact partition;
- **split** (adding a shard) moves switches only *to* the new shard,
  and **merge** (removing one) moves switches only *from* it — the
  consistent-hashing minimal-movement guarantee.  The movement
  properties are stated with the capacity slack opened up, since
  bounded-load overflow legitimately re-homes extra switches when a
  cap binds.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.service.shardmap import ShardMap  # noqa: E402
from tests.service.test_shardmap import moved  # noqa: E402

NAMES = st.sets(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
            max_size=12),
    min_size=1, max_size=64,
).map(sorted)

SHARD_COUNTS = st.integers(min_value=2, max_value=6)

RELAXED = settings(max_examples=60, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


def shard_ids(count):
    return [f"shard-{i}" for i in range(count)]


def uncapped(shards):
    """A load factor at which no capacity cap binds on a ring of up to
    ``shards`` shards: the cap, ``ceil(fair share * factor)``, is then
    at least the whole fleet.  (The fleet size is not enough: two
    switches on four shards would cap at one.)"""
    return float(shards)


def owner_map(assignment):
    return {switch: shard for shard, switches in assignment.items()
            for switch in switches}


class TestAssignmentInvariants:
    @RELAXED
    @given(switches=NAMES, shards=SHARD_COUNTS,
           order_seed=st.randoms(use_true_random=False))
    def test_order_independence(self, switches, shards, order_seed):
        ring = ShardMap(shard_ids(shards))
        shuffled = list(switches)
        order_seed.shuffle(shuffled)
        assert ring.assign(shuffled) == ring.assign(switches)

    @RELAXED
    @given(switches=NAMES, shards=SHARD_COUNTS)
    def test_exact_partition_under_cap(self, switches, shards):
        ring = ShardMap(shard_ids(shards))
        assignment = ring.assign(switches)
        assert sorted(owner_map(assignment)) == sorted(switches)
        assert set(assignment) == set(shard_ids(shards))
        cap = ring.capacity(len(switches))
        assert all(len(group) <= cap for group in assignment.values())

    @RELAXED
    @given(switches=NAMES, shards=SHARD_COUNTS)
    def test_stable_across_map_instances(self, switches, shards):
        # sha256 ring, not salted hash(): two processes (or two ring
        # objects) must agree byte for byte.
        first = ShardMap(shard_ids(shards)).assign(switches)
        second = ShardMap(shard_ids(shards)).assign(switches)
        assert first == second


class TestMinimalMovement:
    @RELAXED
    @given(switches=NAMES, shards=SHARD_COUNTS)
    def test_split_moves_only_to_the_new_shard(self, switches, shards):
        factor = uncapped(shards + 1)
        before = ShardMap(shard_ids(shards)).assign(switches, factor)
        after = ShardMap(shard_ids(shards + 1)).assign(switches, factor)
        new_shard = f"shard-{shards}"
        owners_before, owners_after = owner_map(before), owner_map(after)
        for switch in switches:
            if owners_after[switch] != owners_before[switch]:
                assert owners_after[switch] == new_shard
        assert moved(before, after) == len(after[new_shard])

    @RELAXED
    @given(switches=NAMES, shards=SHARD_COUNTS)
    def test_merge_moves_only_from_the_removed_shard(self, switches,
                                                     shards):
        factor = uncapped(shards + 1)
        removed = f"shard-{shards}"
        before = ShardMap(shard_ids(shards + 1)).assign(switches, factor)
        after = ShardMap(shard_ids(shards)).assign(switches, factor)
        owners_before, owners_after = owner_map(before), owner_map(after)
        for switch in switches:
            if owners_before[switch] != owners_after[switch]:
                assert owners_before[switch] == removed
        assert moved(before, after) == len(before[removed])
