"""The restricted ALU operation set available on a PISA switch.

The paper's premise (§V, §VI) is that programmable data planes support
only simple arithmetic — AND, XOR, rotate — and no loops, multiplication,
modulo, or exponentiation.  All crypto in this package is written in terms
of these helpers so that the feasibility claim is checkable: if a primitive
only calls functions from this module, it fits the switch.

All helpers operate on fixed-width unsigned words and mask their results,
mirroring hardware registers that wrap silently.
"""

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def add32(a: int, b: int) -> int:
    """32-bit modular addition (hardware adders wrap)."""
    return (a + b) & MASK32


def xor32(a: int, b: int) -> int:
    """32-bit XOR."""
    return (a ^ b) & MASK32


def rotl32(value: int, amount: int) -> int:
    """Rotate a 32-bit word left by a compile-time constant amount."""
    amount &= 31
    value &= MASK32
    return ((value << amount) | (value >> (32 - amount))) & MASK32


def rotr32(value: int, amount: int) -> int:
    """Rotate a 32-bit word right by a compile-time constant amount."""
    return rotl32(value, 32 - (amount & 31))


def xor64(a: int, b: int) -> int:
    """64-bit XOR (modeled as two 32-bit lanes on Tofino)."""
    return (a ^ b) & MASK64


def and64(a: int, b: int) -> int:
    """64-bit AND (modeled as two 32-bit lanes on Tofino)."""
    return (a & b) & MASK64


def shr64(value: int, amount: int) -> int:
    """64-bit logical shift right."""
    return (value & MASK64) >> amount


def lo32(value: int) -> int:
    """Low 32-bit lane of a 64-bit word."""
    return value & MASK32


def hi32(value: int) -> int:
    """High 32-bit lane of a 64-bit word."""
    return (value >> 32) & MASK32


def concat32(high: int, low: int) -> int:
    """Assemble a 64-bit word from two 32-bit lanes."""
    return ((high & MASK32) << 32) | (low & MASK32)
