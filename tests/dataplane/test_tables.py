"""Match-action tables: exact/ternary/LPM semantics and configuration."""

import pytest
from hypothesis import given, strategies as st

from repro.dataplane.tables import MatchActionTable, MatchKind, TableEntry


def make_table(kind, bits=32, max_entries=16):
    table = MatchActionTable("t", [("f", kind, bits)], max_entries)
    hits = []
    table.register_action("record", lambda tag=0: hits.append(tag))
    return table, hits


def test_exact_match():
    table, hits = make_table(MatchKind.EXACT)
    table.insert(TableEntry(key=(5,), action="record", params={"tag": 1}))
    table.lookup(5)
    table.lookup(6)
    assert hits == [1]
    assert table.hit_count == 1
    assert table.miss_count == 1


def test_default_action_on_miss():
    table, hits = make_table(MatchKind.EXACT)
    table.set_default("record", tag=99)
    table.lookup(1)
    assert hits == [99]
    assert table.miss_count == 1


def test_ternary_priority_wins():
    table, hits = make_table(MatchKind.TERNARY)
    table.insert(TableEntry(key=((0x10, 0xF0),), action="record",
                            params={"tag": 1}, priority=1))
    table.insert(TableEntry(key=((0x12, 0xFF),), action="record",
                            params={"tag": 2}, priority=10))
    table.lookup(0x12)
    assert hits == [2]


def test_ternary_mask_semantics():
    table, hits = make_table(MatchKind.TERNARY)
    table.insert(TableEntry(key=((0x10, 0xF0),), action="record",
                            params={"tag": 1}))
    table.lookup(0x1F)   # matches under mask 0xF0
    table.lookup(0x20)   # does not
    assert hits == [1]


def test_lpm_longest_prefix_wins():
    table, hits = make_table(MatchKind.LPM)
    table.insert(TableEntry(key=((0x0A000000, 8),), action="record",
                            params={"tag": 8}))
    table.insert(TableEntry(key=((0x0A0B0000, 16),), action="record",
                            params={"tag": 16}))
    table.lookup(0x0A0B0C0D)
    assert hits == [16]
    table.lookup(0x0AFF0000)
    assert hits == [16, 8]


def test_lpm_zero_length_matches_everything():
    table, hits = make_table(MatchKind.LPM)
    table.insert(TableEntry(key=((0, 0),), action="record", params={"tag": 0}))
    table.lookup(0xFFFFFFFF)
    assert hits == [0]


def test_capacity_enforced():
    table, _ = make_table(MatchKind.EXACT, max_entries=1)
    table.insert(TableEntry(key=(1,), action="record"))
    with pytest.raises(RuntimeError):
        table.insert(TableEntry(key=(2,), action="record"))


def test_unknown_action_rejected():
    table, _ = make_table(MatchKind.EXACT)
    with pytest.raises(KeyError):
        table.insert(TableEntry(key=(1,), action="nope"))
    with pytest.raises(KeyError):
        table.set_default("nope")


def test_key_arity_checked():
    table, _ = make_table(MatchKind.EXACT)
    with pytest.raises(ValueError):
        table.insert(TableEntry(key=(1, 2), action="record"))


def test_duplicate_action_name_rejected():
    table, _ = make_table(MatchKind.EXACT)
    with pytest.raises(ValueError):
        table.register_action("record", lambda: None)


def test_uses_tcam_flag():
    exact, _ = make_table(MatchKind.EXACT)
    ternary, _ = make_table(MatchKind.TERNARY)
    lpm, _ = make_table(MatchKind.LPM)
    assert not exact.uses_tcam
    assert ternary.uses_tcam
    assert lpm.uses_tcam


def test_multi_field_key():
    table = MatchActionTable(
        "multi", [("a", MatchKind.EXACT, 8), ("b", MatchKind.EXACT, 8)])
    hits = []
    table.register_action("record", lambda: hits.append(1))
    table.insert(TableEntry(key=(1, 2), action="record"))
    table.lookup(1, 2)
    table.lookup(1, 3)
    assert hits == [1]


def test_table_needs_match_fields():
    with pytest.raises(ValueError):
        MatchActionTable("empty", [])


def _linear_exact(entries, key):
    """The exact-match reference: the first inserted entry whose key is
    equal, field by field."""
    for entry in entries:
        if tuple(entry.key) == key:
            return entry
    return None


# Small value ranges so repeated keys and present lookups are common.
_EXACT_VALUE = st.integers(min_value=0, max_value=3)


@st.composite
def _exact_script(draw):
    arity = draw(st.sampled_from([1, 2]))
    key = st.tuples(*[_EXACT_VALUE] * arity)
    inserts = draw(st.lists(key, max_size=12))
    lookups = draw(st.lists(key, max_size=12))
    return arity, inserts, lookups, draw(st.booleans())


@given(_exact_script())
def test_exact_lookup_matches_a_linear_scan(script):
    """Hashed exact lookup: same value, winner and counters as a scan
    over the entries in insertion order (first inserted key wins)."""
    arity, inserts, lookups, with_default = script
    table = MatchActionTable(
        "t", [(f"f{i}", MatchKind.EXACT, 8) for i in range(arity)])
    table.register_action("record", lambda tag: tag)
    if with_default:
        table.set_default("record", tag=-1)
    entries = []
    for position, key in enumerate(inserts):
        # Each entry's tag is its insertion position: the winner is named.
        entry = TableEntry(key=key, action="record",
                           params={"tag": position})
        table.insert(entry)
        entries.append(entry)
    hits = misses = 0
    for key in lookups:
        expected = _linear_exact(entries, key)
        got = table.lookup(*key)
        if expected is not None:
            hits += 1
            assert got == expected.params["tag"]
        else:
            misses += 1
            assert got == (-1 if with_default else None)
        assert (table.hit_count, table.miss_count) == (hits, misses)
    assert len(table) == len(entries)
    assert table.entries() == entries
