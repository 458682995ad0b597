"""Per-hop constants — ``Packet.size_bytes``, header lookup,
``Header.__setitem__`` and exact-match table lookup.

The forwarding walk reads a packet's size, looks headers up by name and
sets header fields several times per hop, and every register op looks
its ``(regId, opType)`` up in an exact-match table.  All are O(1) — a
running byte total kept by ``push``/``remove``, headers keyed by name,
width tables built when the header type is declared, and an exact-only
table hashed by key — and this gate keeps them from quietly going back
to a walk over the header stack / the field list / the entries.  Four
ratios, same process (a ratio holds across hosts where an absolute
would not):

- ``size_bytes`` on an 8-header packet costs <= 1.5x a 1-header packet
  (the stack walk measured 2.5x);
- ``has`` / ``get`` of the innermost of 8 headers costs <= 1.5x the
  1-header case (the stack walk measured 2.4-2.8x);
- ``Header.__setitem__`` on the last field of a 16-field type costs
  <= 1.5x the first field (the field scan measured 2.1x);
- looking up the last key of a 1 024-entry two-field exact table costs
  <= 1.5x a 2-entry table (the entry scan measured 83-129x).

They guard the property, not the claim: what the memo buys end to end is
``fwd_plain``'s ``ops_per_s`` (``cdp_rw``'s for the table) in
``bench/run.py``.
"""

from benchmarks.conftest import best_seconds_per_call
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.tables import MatchActionTable, MatchKind, TableEntry

#: Slow case over fast case, at most.
RATIO_CEILING = 1.5
REPEATS, CALLS = 7, 20000
#: Fewer calls per loop for the table: an entry scan over 1 024 entries
#: costs about 0.5 ms a lookup, and the gate must fail in seconds.
TABLE_CALLS = 2000

WIDE = HeaderType("wide", [(f"f{index}", 16) for index in range(16)])


def _best_ns(fn) -> float:
    return best_seconds_per_call(fn, CALLS, REPEATS) * 1e9


def _packet(headers: int) -> Packet:
    packet = Packet(payload=b"x" * 64)
    for index in range(headers):
        packet.push(f"h{index}", WIDE.instantiate())
    return packet


def test_size_bytes_does_not_grow_with_the_header_stack(report):
    shallow, deep = _packet(1), _packet(8)
    assert deep.size_bytes == len(deep.serialize()) == 8 * 32 + 64
    shallow_ns = _best_ns(lambda: shallow.size_bytes)
    deep_ns = _best_ns(lambda: deep.size_bytes)
    ratio = deep_ns / shallow_ns
    report(f"Packet.size_bytes: 1 header {shallow_ns:.0f} ns, 8 headers "
           f"{deep_ns:.0f} ns, {ratio:.2f}x (ceiling: {RATIO_CEILING}x)")
    assert ratio <= RATIO_CEILING, (
        f"size_bytes costs {ratio:.2f}x on 8 headers vs 1 "
        f"(ceiling {RATIO_CEILING}x): it walks the stack again")


def test_header_lookup_does_not_grow_with_the_header_stack(report):
    shallow, deep = _packet(1), _packet(8)
    assert deep.header_names()[-1] == "h7"

    def lookup_shallow():
        shallow.has("h0")
        shallow.get("h0")

    def lookup_deep():
        deep.has("h7")
        deep.get("h7")

    shallow_ns, deep_ns = _best_ns(lookup_shallow), _best_ns(lookup_deep)
    ratio = deep_ns / shallow_ns
    report(f"Packet.has + get: 1 header {shallow_ns:.0f} ns, innermost of 8 "
           f"{deep_ns:.0f} ns, {ratio:.2f}x (ceiling: {RATIO_CEILING}x)")
    assert ratio <= RATIO_CEILING, (
        f"looking up the innermost of 8 headers costs {ratio:.2f}x the "
        f"1-header case (ceiling {RATIO_CEILING}x): it walks the stack again")


def test_field_store_does_not_grow_with_field_position(report):
    header = WIDE.instantiate()

    def set_first():
        header["f0"] = 0xBEEF

    def set_last():
        header["f15"] = 0xBEEF

    first_ns, last_ns = _best_ns(set_first), _best_ns(set_last)
    assert header["f0"] == header["f15"] == 0xBEEF
    ratio = last_ns / first_ns
    report(f"Header.__setitem__, 16 fields: first {first_ns:.0f} ns, last "
           f"{last_ns:.0f} ns, {ratio:.2f}x (ceiling: {RATIO_CEILING}x)")
    assert ratio <= RATIO_CEILING, (
        f"storing the last of 16 fields costs {ratio:.2f}x the first "
        f"(ceiling {RATIO_CEILING}x): field lookup scans again")


def _exact_table(entries: int) -> MatchActionTable:
    """The register-op mapping table's shape: ``(regId, opType)``."""
    table = MatchActionTable(
        "exact", [("regId", MatchKind.EXACT, 32),
                  ("opType", MatchKind.EXACT, 8)], max_entries=entries)
    table.register_action("hit", lambda: 1)
    for reg_id in range(entries):
        table.insert(TableEntry(key=(reg_id, 1), action="hit"))
    return table


def test_exact_lookup_does_not_grow_with_the_table(report):
    small, large = _exact_table(2), _exact_table(1024)
    assert small.lookup(1, 1) == large.lookup(1023, 1) == 1
    small_ns = best_seconds_per_call(
        lambda: small.lookup(1, 1), TABLE_CALLS, REPEATS) * 1e9
    large_ns = best_seconds_per_call(
        lambda: large.lookup(1023, 1), TABLE_CALLS, REPEATS) * 1e9
    ratio = large_ns / small_ns
    report(f"MatchActionTable.lookup, exact, last key: 2 entries "
           f"{small_ns:.0f} ns, 1024 entries {large_ns:.0f} ns, {ratio:.2f}x "
           f"(ceiling: {RATIO_CEILING}x)")
    assert ratio <= RATIO_CEILING, (
        f"an exact lookup in 1024 entries costs {ratio:.2f}x one in 2 "
        f"(ceiling {RATIO_CEILING}x): it scans the entries again")
