"""P4-16 source generation for the P4Auth data plane.

The paper's artifact is a ~400-line P4 program (§VII).  This module emits
that program's skeleton — headers, parser, registers, the
``reg_id_to_name_mapping`` table, and the verify/sign control blocks —
*derived from the same constants the simulator runs on*:
:data:`~repro.core.constants.P4AUTH_HEADERS` drives the header
declarations, :data:`~repro.core.constants.MESSAGE_GRAMMAR` the parser,
a :class:`~repro.core.auth_dataplane.P4AuthDataplane` instance the
register sizes and mapped-register actions.

The output targets the v1model architecture (the BMv2 flavor of the
prototype); digest computation appears as the paper's ``compute_digest``
extern.  It is a faithful structural artifact, not a drop-in compiled
binary: round-unrolled HalfSipHash bodies are emitted as extern calls,
exactly as the paper describes the BMv2 implementation.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

from repro.core.constants import (
    MESSAGE_GRAMMAR,
    P4AUTH_HEADERS,
    HdrType,
    RegOpType,
)
from repro.core.secrets import is_internal_register
from repro.dataplane.headers import HeaderType


def _emit_header(out: io.StringIO, header_type: HeaderType) -> None:
    out.write(f"header {header_type.name}_t {{\n")
    for fname, bits in header_type.fields:
        out.write(f"    bit<{bits}> {fname};\n")
    out.write("}\n\n")


def _emit_headers(out: io.StringIO) -> None:
    out.write("/* -------- protocol headers (Fig 7) -------- */\n\n")
    for header_type in P4AUTH_HEADERS:
        _emit_header(out, header_type)
    out.write("struct headers_t {\n")
    out.write("    ethernet_t ethernet;\n")
    for header_type in P4AUTH_HEADERS:
        out.write(f"    {header_type.name}_t {header_type.name};\n")
    out.write("}\n\n")


def _emit_parser(out: io.StringIO) -> None:
    """One ``select`` row per grammar row: a ``hdrType`` with one payload
    for any ``msgType`` extracts it, one whose payload depends on
    ``msgType`` selects again, one with no fixed payload is accepted."""
    classes: Dict[HdrType, List[Tuple[Optional[int], str]]] = {}
    for (hdr_type, msg_type), payload in MESSAGE_GRAMMAR.items():
        if payload is not None:
            classes.setdefault(hdr_type, []).append((msg_type, payload.name))
    hdr_rows, states, leaves = [], [], []
    for hdr_type, rows in classes.items():
        if rows[0][0] is None:
            state = rows[0][1]
            states.append(
                f"    state parse_{state} {{\n"
                f"        pkt.extract(hdr.{state});\n"
                "        transition accept;\n"
                "    }\n")
        else:
            state = hdr_type.name.lower()
            states.append(
                f"    state parse_{state} {{\n"
                "        transition select(hdr.p4auth.msgType) {\n"
                + "".join(f"            {int(msg_type)}: parse_{name};\n"
                          for msg_type, name in rows) +
                "            default: accept;\n"
                "        }\n"
                "    }\n")
            for name in dict.fromkeys(name for _msg_type, name in rows):
                leaves.append(
                    f"    state parse_{name} {{ pkt.extract(hdr.{name}); "
                    "transition accept; }\n")
        hdr_rows.append(f"            {int(hdr_type)}: parse_{state};\n")
    out.write("/* -------- parser: dispatch on hdrType/msgType -------- */\n\n")
    out.write(
        "parser P4AuthParser(packet_in pkt, out headers_t hdr,\n"
        "                    inout metadata_t meta,\n"
        "                    inout standard_metadata_t std_meta) {\n"
        "    state start {\n"
        "        pkt.extract(hdr.ethernet);\n"
        "        transition select(hdr.ethernet.etherType) {\n"
        "            ETHERTYPE_P4AUTH: parse_p4auth;\n"
        "            default: accept;\n"
        "        }\n"
        "    }\n"
        "    state parse_p4auth {\n"
        "        pkt.extract(hdr.p4auth);\n"
        "        transition select(hdr.p4auth.hdrType) {\n"
        + "".join(hdr_rows) +
        "            default: accept;\n"
        "        }\n"
        "    }\n"
        + "".join(states + leaves) +
        "}\n\n")


def _emit_registers(out: io.StringIO, dataplane) -> None:
    out.write("/* -------- P4Auth state (10 register arrays, SVII) -------- */\n\n")
    registers = dataplane.switch.registers
    for name in registers.names():
        if not is_internal_register(name):
            continue
        register = registers.get(name)
        out.write(f"register<bit<{register.width_bits}>>({register.size}) "
                  f"{name};\n")
    out.write("\n")


def _emit_mapping_table(out: io.StringIO, dataplane) -> None:
    out.write("/* -------- Fig 15: reg_id_to_name_mapping -------- */\n\n")
    actions: List[str] = sorted(dataplane.mapping_table._actions)
    for action in actions:
        target = action.rsplit("_", 1)[0]
        kind = action.rsplit("_", 1)[1]
        out.write(f"action {action}() {{\n")
        if kind == "read":
            out.write(f"    {target}.read(meta.op_result, "
                      "(bit<32>)hdr.reg_op.index);\n")
        else:
            out.write(f"    {target}.write((bit<32>)hdr.reg_op.index, "
                      "hdr.reg_op.value);\n")
        out.write("    meta.op_ok = 1;\n}\n")
    out.write(
        "\ntable reg_id_to_name_mapping {\n"
        "    key = {\n"
        "        hdr.reg_op.regId: exact;\n"
        "        hdr.p4auth.msgType: exact;\n"
        "    }\n"
        "    actions = {\n")
    for action in actions:
        out.write(f"        {action};\n")
    out.write(
        "        NoAction;\n"
        "    }\n"
        f"    size = {dataplane.mapping_table.max_entries};\n"
        "    default_action = NoAction();\n"
        "}\n\n")
    out.write("/* entries installed at compile/provision time:\n")
    for entry in dataplane.mapping_table.entries():
        reg_id, op_type = entry.key
        kind = "readReq" if op_type == int(RegOpType.READ_REQ) else "writeReq"
        out.write(f"   ({reg_id}, {kind}) -> {entry.action}\n")
    out.write("*/\n\n")


def _emit_controls(out: io.StringIO) -> None:
    out.write("/* -------- verify-on-ingress / sign-on-egress -------- */\n\n")
    out.write(
        "extern void compute_digest<T>(in bit<64> key, in T data,\n"
        "                              out bit<32> digest);\n\n"
        "control P4AuthVerify(inout headers_t hdr, inout metadata_t meta,\n"
        "                     inout standard_metadata_t std_meta) {\n"
        "    apply {\n"
        "        if (hdr.p4auth.isValid()) {\n"
        "            bit<64> key;\n"
        "            if (std_meta.ingress_port == CPU_PORT) {\n"
        "                p4auth_keys_v0.read(key, 0); /* keyVer select */\n"
        "            } else {\n"
        "                p4auth_keys_v0.read(key,\n"
        "                    (bit<32>)std_meta.ingress_port);\n"
        "            }\n"
        "            bit<32> expected;\n"
        "            compute_digest(key, hdr, expected);\n"
        "            if (expected != hdr.p4auth.digest) {\n"
        "                meta.p4auth_fail = 1; /* nAck / alert / drop */\n"
        "            }\n"
        "            if (meta.p4auth_fail == 0 &&\n"
        f"                hdr.p4auth.hdrType == {int(HdrType.REGISTER_OP)}) {{\n"
        "                reg_id_to_name_mapping.apply();\n"
        "            }\n"
        "        }\n"
        "    }\n"
        "}\n\n"
        "control P4AuthSign(inout headers_t hdr, inout metadata_t meta,\n"
        "                   inout standard_metadata_t std_meta) {\n"
        "    apply {\n"
        "        if (hdr.p4auth.isValid()) {\n"
        "            bit<64> key;\n"
        "            p4auth_keys_v0.read(key,\n"
        "                (bit<32>)std_meta.egress_port);\n"
        "            compute_digest(key, hdr, hdr.p4auth.digest);\n"
        "        }\n"
        "    }\n"
        "}\n\n")


def generate_p4(dataplane, program_name: str = "p4auth") -> str:
    """Emit the P4-16 skeleton for a provisioned P4Auth data plane."""
    out = io.StringIO()
    out.write(f"/* {program_name}.p4 — generated by repro.dataplane.p4gen\n")
    out.write(" * P4Auth data plane (paper SVII), v1model architecture.\n")
    out.write(f" * switch: {dataplane.switch.name}, "
              f"ports: {dataplane.switch.num_ports}\n */\n\n")
    out.write("#include <core.p4>\n#include <v1model.p4>\n\n")
    out.write("#define ETHERTYPE_P4AUTH 0x88B5\n")
    out.write("#define CPU_PORT 0\n\n")
    out.write("header ethernet_t {\n"
              "    bit<48> dstAddr;\n"
              "    bit<48> srcAddr;\n"
              "    bit<16> etherType;\n"
              "}\n\n")
    out.write("struct metadata_t {\n"
              "    bit<1>  p4auth_fail;\n"
              "    bit<1>  op_ok;\n"
              "    bit<64> op_result;\n"
              "}\n\n")
    _emit_headers(out)
    _emit_registers(out, dataplane)
    _emit_mapping_table(out, dataplane)
    _emit_parser(out)
    _emit_controls(out)
    out.write("/* V1Switch(P4AuthParser(), verifyChecksum(),\n"
              " *          P4AuthVerify(), P4AuthSign(),\n"
              " *          computeChecksum(), deparser()) main; */\n")
    return out.getvalue()


def loc_estimate(source: str) -> int:
    """Non-blank, non-comment line count (compare with the paper's 400)."""
    count = 0
    in_block_comment = False
    for line in source.splitlines():
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("/*") and "*/" not in stripped:
            in_block_comment = True
            continue
        if not stripped or stripped.startswith(("//", "/*", "*")):
            continue
        count += 1
    return count
