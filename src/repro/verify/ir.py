"""Declarative IR for static analysis of data-plane programs.

The PISA simulator executes pipeline stages as opaque Python callables,
which is great for behavioural fidelity and useless for static
reasoning.  This module defines a small, PISA-shaped intermediate
representation that each program under :mod:`repro.systems` (and the
P4Auth overlay in :mod:`repro.core.auth_ir`) builds next to its
executable form.  The IR is *data*: expressions over header fields,
metadata, and constants; per-stage operation lists; and declarations of
the tables, registers, hash externs, and headers a program owns.

Analyzers never execute anything — they walk these objects.  A program's
*static shape* is written down once, on the installed switch:
:meth:`Program.from_switch` reads the register and table declarations
off ``switch.introspect()``, so there is no second copy to drift.  What
a program's factory still states is what a switch cannot tell: the op
lists, and the calibration claims the simulator does not model.

Expressions
-----------

``Const(value, bits)`` · ``FieldRef(header, field)`` · ``MetaRef(name)``
· ``BinOp(op, args)`` where ``op`` is one of the constrained ALU ops a
PISA stage offers (``add sub xor and or shl shr min max concat``).

Operations (in stage order)
---------------------------

``RequireValid(header)``            — validity guard; dominates later field access
``SetMeta(dst, expr)``              — metadata assignment
``SetField(header, field, expr)``   — header field assignment
``RegRead(register, index, dst)``   — register array read into metadata
``RegWrite(register, index, expr)`` — register array write
``RegReadModifyWrite(register, index, expr, dst)``
                                    — atomic stateful ALU op (single-cycle;
                                      NOT a read-after-write hazard)
``ApplyTable(table, keys)``         — match-action table application
``HashDigest(dst, inputs, keyed)``  — hash/HMAC extern; *the* declassifier
``KdfDerive(dst, inputs)``          — KDF extern; output is SECRET
``EmitPacket(headers, fields)``     — packet leaves on the wire
``SendToController(fields)``        — mirror / punt to CPU port
``ExportTelemetry(fields)``         — telemetry/INT export sink
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

ALU_OPS = frozenset(
    {"add", "sub", "xor", "and", "or", "shl", "shr", "min", "max", "concat"}
)


@dataclass(frozen=True)
class Const:
    value: int
    bits: int = 32


@dataclass(frozen=True)
class FieldRef:
    header: str
    field: str


@dataclass(frozen=True)
class MetaRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    args: Tuple["Expr", ...]

    def __post_init__(self) -> None:
        if self.op not in ALU_OPS:
            raise ValueError(f"unknown ALU op {self.op!r}")


Expr = Union[Const, FieldRef, MetaRef, BinOp]


def walk_expr(expr: Expr) -> List[Expr]:
    """Pre-order traversal of an expression tree."""
    out: List[Expr] = [expr]
    if isinstance(expr, BinOp):
        for arg in expr.args:
            out.extend(walk_expr(arg))
    return out


def field_refs(expr: Expr) -> List[FieldRef]:
    return [e for e in walk_expr(expr) if isinstance(e, FieldRef)]


def meta_refs(expr: Expr) -> List[MetaRef]:
    return [e for e in walk_expr(expr) if isinstance(e, MetaRef)]


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RequireValid:
    header: str


@dataclass(frozen=True)
class SetMeta:
    dst: str
    expr: Expr


@dataclass(frozen=True)
class SetField:
    header: str
    field: str
    expr: Expr


@dataclass(frozen=True)
class RegRead:
    register: str
    index: Expr
    dst: str


@dataclass(frozen=True)
class RegWrite:
    register: str
    index: Expr
    expr: Expr


@dataclass(frozen=True)
class RegReadModifyWrite:
    """Atomic stateful-ALU update: dst <- f(old, expr) in one cycle."""

    register: str
    index: Expr
    expr: Expr
    dst: str


@dataclass(frozen=True)
class ApplyTable:
    table: str
    keys: Tuple[Expr, ...]


@dataclass(frozen=True)
class HashDigest:
    """Hash/HMAC extern invocation.

    ``keyed=True`` means the digest is keyed (HMAC-style) and acts as the
    lattice declassifier: SECRET inputs yield a DIGEST_OK output.  An
    unkeyed hash does NOT declassify — its output keeps the join of its
    input labels.
    """

    dst: str
    inputs: Tuple[Expr, ...]
    keyed: bool = True
    extern: str = "digest"


@dataclass(frozen=True)
class KdfDerive:
    """KDF extern; the derived value is fresh key material (SECRET)."""

    dst: str
    inputs: Tuple[Expr, ...]
    extern: str = "kdf"


@dataclass(frozen=True)
class EmitPacket:
    headers: Tuple[str, ...]
    fields: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class SendToController:
    fields: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class ExportTelemetry:
    fields: Tuple[Expr, ...] = ()


Op = Union[
    RequireValid,
    SetMeta,
    SetField,
    RegRead,
    RegWrite,
    RegReadModifyWrite,
    ApplyTable,
    HashDigest,
    KdfDerive,
    EmitPacket,
    SendToController,
    ExportTelemetry,
]


# --------------------------------------------------------------------------
# declarations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterDecl:
    name: str
    width_bits: int
    size: int
    secret: bool = False


@dataclass(frozen=True)
class TableDecl:
    name: str
    key_bits: int
    entries: int
    match_kind: str = "exact"  # exact | ternary | lpm
    action_bits: int = 32
    has_default: bool = True


@dataclass(frozen=True)
class HeaderDecl:
    """Header declaration; ``fields`` is the ordered (name, bits) layout."""

    name: str
    fields: Tuple[Tuple[str, int], ...]

    @property
    def bit_width(self) -> int:
        return sum(bits for _, bits in self.fields)

    def field_bits(self, name: str) -> Optional[int]:
        for fname, bits in self.fields:
            if fname == name:
                return bits
        return None


@dataclass(frozen=True)
class HashDecl:
    name: str
    units: int = 1


@dataclass(frozen=True)
class StageDecl:
    name: str
    ops: Tuple[Op, ...]


@dataclass
class Program:
    """A complete declared program: decls + ordered stages."""

    name: str
    stages: List[StageDecl] = field(default_factory=list)
    registers: List[RegisterDecl] = field(default_factory=list)
    tables: List[TableDecl] = field(default_factory=list)
    headers: List[HeaderDecl] = field(default_factory=list)
    hashes: List[HashDecl] = field(default_factory=list)
    #: The installed switch the declarations were read from, if any.
    switch: Optional[object] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_switch(cls, name: str, switch, stages: Sequence[StageDecl],
                    headers: Sequence[object] = (),
                    hashes: Sequence[HashDecl] = (),
                    action_bits: Optional[Dict[str, int]] = None,
                    check_stages: bool = True) -> "Program":
        """The program an installed switch runs, with ``stages`` as its ops.

        Registers and tables are read off ``switch.introspect()``.  What
        the simulator does not model is claimed here and nowhere else:
        ``headers`` takes the ``HeaderType`` constants the stage closures
        parse, or a :class:`HeaderDecl` for PHV they do not; ``hashes``
        the hash-unit counts; ``action_bits`` table action-data widths
        (default 32).  A stage name that is absent from, or out of order
        in, the live pipeline raises — unless the caller says the program
        installs no stage (``check_stages=False``).
        """
        # Imported here: ``import repro.verify`` must not load repro.core.
        from repro.core.secrets import is_secret_register

        view = switch.introspect()
        if check_stages:
            cursor = 0
            for stage in stages:
                try:
                    cursor = view["stages"].index(stage.name, cursor) + 1
                except ValueError:
                    raise ValueError(
                        f"{name}: declared stage {stage.name!r} is missing "
                        f"from, or out of order in, the live pipeline "
                        f"{view['stages']}") from None
        widths = action_bits or {}
        return cls(
            name, list(stages),
            registers=[
                RegisterDecl(reg, layout["width_bits"], layout["size"],
                             secret=is_secret_register(reg))
                for reg, layout in view["registers"].items()],
            tables=[
                TableDecl(table, info["key_bits"], info["entries"],
                          info["match_kind"], widths.get(table, 32),
                          info["has_default"])
                for table, info in view["tables"].items()],
            headers=[
                h if isinstance(h, HeaderDecl)
                else HeaderDecl(h.name, tuple(h.fields)) for h in headers],
            hashes=list(hashes), switch=switch)

    # -- convenience lookups -------------------------------------------------

    def register(self, name: str) -> Optional[RegisterDecl]:
        return next((r for r in self.registers if r.name == name), None)

    def table(self, name: str) -> Optional[TableDecl]:
        return next((t for t in self.tables if t.name == name), None)

    def header(self, name: str) -> Optional[HeaderDecl]:
        return next((h for h in self.headers if h.name == name), None)

    def secret_registers(self) -> List[str]:
        return [r.name for r in self.registers if r.secret]

    def ops(self) -> List[Tuple[str, int, Op]]:
        """Flat (stage, op_index, op) walk in pipeline order."""
        out: List[Tuple[str, int, Op]] = []
        for stage in self.stages:
            for idx, op in enumerate(stage.ops):
                out.append((stage.name, idx, op))
        return out


def op_input_exprs(op: Op) -> Sequence[Expr]:
    """All expressions an op *reads* (for taint propagation)."""
    if isinstance(op, SetMeta):
        return (op.expr,)
    if isinstance(op, SetField):
        return (op.expr,)
    if isinstance(op, RegRead):
        return (op.index,)
    if isinstance(op, RegWrite):
        return (op.index, op.expr)
    if isinstance(op, RegReadModifyWrite):
        return (op.index, op.expr)
    if isinstance(op, ApplyTable):
        return op.keys
    if isinstance(op, (HashDigest, KdfDerive)):
        return op.inputs
    if isinstance(op, (EmitPacket, SendToController, ExportTelemetry)):
        return op.fields
    return ()


__all__ = [
    "ALU_OPS",
    "ApplyTable",
    "BinOp",
    "Const",
    "EmitPacket",
    "ExportTelemetry",
    "Expr",
    "FieldRef",
    "HashDecl",
    "HashDigest",
    "HeaderDecl",
    "KdfDerive",
    "MetaRef",
    "Op",
    "Program",
    "RegRead",
    "RegReadModifyWrite",
    "RegWrite",
    "RegisterDecl",
    "RequireValid",
    "SendToController",
    "SetField",
    "SetMeta",
    "StageDecl",
    "TableDecl",
    "field_refs",
    "meta_refs",
    "op_input_exprs",
    "walk_expr",
]
