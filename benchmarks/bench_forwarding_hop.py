"""Per-hop constants — ``Packet.size_bytes``, header lookup and
``Header.__setitem__``.

The forwarding walk reads a packet's size, looks headers up by name and
sets header fields several times per hop.  All are O(1) — a running byte
total kept by ``push``/``remove``, headers keyed by name, and width
tables built when the header type is declared — and this gate keeps them
from quietly going back to a walk over the header stack / the field
list.  Three ratios, same process (a ratio holds across hosts where an
absolute would not):

- ``size_bytes`` on an 8-header packet costs <= 1.5x a 1-header packet
  (the stack walk measured 2.5x);
- ``has`` / ``get`` of the innermost of 8 headers costs <= 1.5x the
  1-header case (the stack walk measured 2.4-2.8x);
- ``Header.__setitem__`` on the last field of a 16-field type costs
  <= 1.5x the first field (the field scan measured 2.1x).

They guard the property, not the claim: what the memo buys end to end is
``fwd_plain``'s ``ops_per_s`` in ``bench/run.py``.
"""

from benchmarks.conftest import best_seconds_per_call
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet

#: Slow case over fast case, at most.
RATIO_CEILING = 1.5
REPEATS, CALLS = 7, 20000

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
