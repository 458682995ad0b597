"""The flow pass, pinned finding for finding on generated programs.

``random_program(seed)`` draws a straight-line program over every op
kind of :mod:`repro.verify.ir`: one secret and two public registers
plus an undeclared one, two headers, metadata that may never be set,
keyed and unkeyed digests.  ``golden/flow_equivalence.txt`` lists every
TAINT and SURF finding on seeds ``0 .. N_PROGRAMS - 1``, one
``seed rule stage op_index subject`` line each (``-`` for no subject),
TAINT lines before SURF lines and each in walk order.

The golden was captured from the two passes that :func:`analyze_flow`
replaced, one for secrecy and one for wire influence.  Its only change
since is the SURF001 findings that a secret-register RMW used to hide
(its ``dst`` now carries the wire influence of the value written).
"""

import pathlib
import random
import typing

from repro.verify.flow import analyze_flow
from repro.verify.ir import (
    ALU_OPS,
    ApplyTable,
    BinOp,
    Const,
    EmitPacket,
    ExportTelemetry,
    FieldRef,
    HashDigest,
    KdfDerive,
    MetaRef,
    Op,
    Program,
    RegRead,
    RegReadModifyWrite,
    RegWrite,
    RegisterDecl,
    RequireValid,
    SendToController,
    SetField,
    SetMeta,
    StageDecl,
)

N_PROGRAMS = 2000
GOLDEN = pathlib.Path(__file__).parent / "golden" / "flow_equivalence.txt"

REGISTERS = (RegisterDecl("keys", 64, 4, secret=True),
             RegisterDecl("r0", 32, 8), RegisterDecl("r1", 32, 8))
#: ``ghost`` is written and read but never declared.
REGISTER_NAMES = ("keys", "r0", "r1", "ghost")
HEADERS = ("h0", "h1")
FIELDS = ("a", "b")
META = ("m0", "m1", "m2", "m3")
ALU = sorted(ALU_OPS)


def _expr(rng, depth=0):
    kind = rng.randrange(4 if depth < 2 else 3)
    if kind == 0:
        return Const(rng.randrange(16))
    if kind == 1:
        return FieldRef(rng.choice(HEADERS), rng.choice(FIELDS))
    if kind == 2:
        return MetaRef(rng.choice(META))
    return BinOp(rng.choice(ALU), tuple(
        _expr(rng, depth + 1) for _ in range(rng.randint(1, 3))))


def _exprs(rng):
    return tuple(_expr(rng) for _ in range(rng.randint(0, 2)))


def _rmw(rng):
    return RegReadModifyWrite(rng.choice(REGISTER_NAMES), _expr(rng),
                              _expr(rng), rng.choice(META))


#: RMW is drawn three times as often as any other op: its ``dst`` is
#: where secrecy and wire influence part ways on a secret register.
_OPS = (_rmw, _rmw) + (
    lambda rng: RequireValid(rng.choice(HEADERS)),
    lambda rng: SetMeta(rng.choice(META), _expr(rng)),
    lambda rng: SetField(rng.choice(HEADERS), rng.choice(FIELDS), _expr(rng)),
    lambda rng: RegRead(rng.choice(REGISTER_NAMES), _expr(rng),
                        rng.choice(META)),
    lambda rng: RegWrite(rng.choice(REGISTER_NAMES), _expr(rng), _expr(rng)),
    _rmw,
    lambda rng: ApplyTable("t", _exprs(rng)),
    lambda rng: HashDigest(rng.choice(META), _exprs(rng),
                           keyed=rng.random() < 0.5),
    lambda rng: KdfDerive(rng.choice(META), _exprs(rng)),
    lambda rng: EmitPacket(tuple(h for h in HEADERS if rng.random() < 0.5),
                           _exprs(rng)),
    lambda rng: SendToController(_exprs(rng)),
    lambda rng: ExportTelemetry(_exprs(rng)),
)


def random_program(seed: int) -> Program:
    rng = random.Random(seed)
    stages = [
        StageDecl(f"s{i}", tuple(rng.choice(_OPS)(rng)
                                 for _ in range(rng.randint(1, 5))))
        for i in range(rng.randint(1, 3))]
    return Program(f"gen{seed}", stages, registers=list(REGISTERS))


def golden_lines(seed: int):
    findings = sorted(analyze_flow(random_program(seed)),
                      key=lambda f: f.rule == "SURF001")
    return [f"{seed} {f.rule} {f.stage} {f.op_index} {f.subject or '-'}"
            for f in findings]


def test_flow_matches_golden():
    got = [line for seed in range(N_PROGRAMS) for line in golden_lines(seed)]
    assert got == GOLDEN.read_text().splitlines()


def test_generator_covers_every_op_kind_and_rule():
    kinds = {type(op) for seed in range(N_PROGRAMS)
             for _, _, op in random_program(seed).ops()}
    assert kinds == set(typing.get_args(Op))
    rules = {line.split()[1] for line in GOLDEN.read_text().splitlines()}
    assert rules == {"TAINT001", "TAINT002", "TAINT003", "TAINT004",
                     "TAINT005", "SURF001"}
