"""Verify-IR for the P4Auth overlay, composed over a base program.

:func:`p4auth_over` does to a base program's IR what
:meth:`~repro.core.auth_dataplane.P4AuthDataplane.install` does to its
pipeline — ``p4auth_verify`` first, the base stages, ``p4auth_sign``
last — and reads the combined register/table inventory off the switch
the overlay was installed on.  :func:`p4auth_program` applies it to the
Table II evaluation point, the §IX-B L3 forwarder on a 64-port switch
with its one register mapped.  The op lists model the
verify/sign/key-exchange data paths at the granularity the taint engine
needs: every place key material is read, every digest, every KDF, every
emission.  The overlay's calibration claims (hash-unit counts, metadata
PHV) are stated here, next to the ops, and nowhere else.

Modeling notes for the taint engine:

- Key-register reads (``p4auth_keys_v*``) yield SECRET metadata; the
  only ops consuming it are keyed ``HashDigest`` invocations (Eqn 4
  digests), whose DIGEST_OK outputs are what reaches the wire.
- Fresh DH exponents enter via the PRNG (no stored-secret provenance, so
  PUBLIC at birth); secrecy attaches when they are stored in the
  ``p4auth_pending_*`` arrays, which are labeled SECRET sources.
- The KDF output (session/master keys) is SECRET by construction and
  flows only into key registers.
"""

from __future__ import annotations

from repro.core.constants import P4AUTH_HEADERS
from repro.verify.ir import (
    ApplyTable,
    BinOp,
    Const,
    EmitPacket,
    FieldRef,
    HashDecl,
    HashDigest,
    HeaderDecl,
    KdfDerive,
    MetaRef,
    Program,
    RegRead,
    RegReadModifyWrite,
    RegWrite,
    RequireValid,
    SendToController,
    SetField,
    SetMeta,
    StageDecl,
)

#: Table II evaluation point: a 64-port switch.
NUM_PORTS = 64


def _verify_stage(mapped: str) -> StageDecl:
    """The ``p4auth_verify`` ingress stage: authenticate, then dispatch."""
    ops = (
        RequireValid("p4auth"),
        SetMeta("ingress_port", Const(0, 16)),
        # -- digest verification (Eqn 4) -------------------------------
        RegRead("p4auth_key_version", Const(0), "active_ver"),
        RegRead("p4auth_keys_v0", Const(0), "auth_key"),
        HashDigest("digest_rx", (
            MetaRef("auth_key"),
            FieldRef("p4auth", "hdrType"),
            FieldRef("p4auth", "msgType"),
            FieldRef("p4auth", "seqNum"),
            FieldRef("p4auth", "keyVer"),
            FieldRef("p4auth", "length"),
        ), keyed=True, extern="digest_verify"),
        SetMeta("digest_ok", BinOp("xor", (
            MetaRef("digest_rx"), FieldRef("p4auth", "digest")))),
        # -- replay window (§VIII) -------------------------------------
        RegRead("p4auth_expected_seq", Const(0), "expected_seq"),
        RegWrite("p4auth_expected_seq", Const(0), BinOp("add", (
            FieldRef("p4auth", "seqNum"), Const(1)))),
        RegRead("p4auth_port_seq", MetaRef("ingress_port"), "port_seq"),
        RegWrite("p4auth_port_seq", MetaRef("ingress_port"),
                 FieldRef("p4auth", "seqNum")),
        # -- authenticated register op (Fig 15) ------------------------
        RequireValid("reg_op"),
        SetMeta("op_index", FieldRef("reg_op", "index")),
        ApplyTable("reg_id_to_name_mapping", (
            FieldRef("reg_op", "regId"), FieldRef("p4auth", "msgType"))),
        RegRead(mapped, MetaRef("op_index"), "op_result"),
        SetField("reg_op", "value", MetaRef("op_result")),
        # -- EAK respond (Fig 11): derive and store K_auth -------------
        RequireValid("eak"),
        KdfDerive("k_auth", (FieldRef("eak", "salt"),),
                  extern="kdf_prf_extract_expand"),
        RegWrite("p4auth_kauth", Const(0), MetaRef("k_auth")),
        # -- ADHKD legs (Figs 12/14) -----------------------------------
        RequireValid("adhkd"),
        RequireValid("keyctl"),
        SetMeta("ctl_port", FieldRef("keyctl", "port")),
        SetMeta("dh_r2", Const(0, 64)),  # fresh PRNG exponent
        RegWrite("p4auth_pending_r1", MetaRef("ctl_port"),
                 MetaRef("dh_r2")),
        RegWrite("p4auth_pending_s1", MetaRef("ctl_port"),
                 FieldRef("adhkd", "salt")),
        KdfDerive("master_key", (
            FieldRef("adhkd", "pk"), FieldRef("adhkd", "salt")),
            extern="kdf_prf_extract_expand"),
        RegWrite("p4auth_keys_v1", MetaRef("ctl_port"),
                 MetaRef("master_key")),
        # The outgoing public key is the one-way image of the fresh
        # exponent (g^r2): unkeyed hash over PUBLIC provenance.
        HashDigest("dh_pk2", (MetaRef("dh_r2"),), keyed=False,
                   extern="key_exchange_auth"),
        SetField("adhkd", "pk", MetaRef("dh_pk2")),
        # -- alert path (rate-limited, §VIII) --------------------------
        RequireValid("alert"),
        RegReadModifyWrite("p4auth_alert_count", Const(0), Const(1),
                           "alert_n"),
        SetField("alert", "code", Const(1, 8)),
        SetField("alert", "detail", MetaRef("op_index")),
        # -- signed responses toward the controller --------------------
        HashDigest("resp_digest", (
            MetaRef("auth_key"),
            FieldRef("p4auth", "seqNum"),
            FieldRef("reg_op", "value"),
            FieldRef("alert", "code"),
        ), keyed=True, extern="digest_sign"),
        SetField("p4auth", "digest", MetaRef("resp_digest")),
        SendToController(fields=(
            FieldRef("p4auth", "digest"),
            FieldRef("reg_op", "value"),
            FieldRef("adhkd", "pk"),
            FieldRef("alert", "code"),
        )),
    )
    return StageDecl("p4auth_verify", ops)


def _sign_stage() -> StageDecl:
    """The ``p4auth_sign`` egress stage: digest everything leaving."""
    ops = (
        RegRead("p4auth_keys_v0", Const(0), "sign_key"),
        RegReadModifyWrite("p4auth_dp_seq", Const(0), Const(1), "dp_seq"),
        SetField("p4auth", "seqNum", MetaRef("dp_seq")),
        HashDigest("out_digest", (
            MetaRef("sign_key"),
            FieldRef("p4auth", "hdrType"),
            FieldRef("p4auth", "seqNum"),
            FieldRef("p4auth", "length"),
        ), keyed=True, extern="digest_sign"),
        SetField("p4auth", "digest", MetaRef("out_digest")),
        EmitPacket(headers=("ethernet", "ipv4", "p4auth", "reg_op"),
                   fields=(FieldRef("p4auth", "digest"),)),
    )
    return StageDecl("p4auth_sign", ops)


def p4auth_over(base: Program, mapped: str) -> Program:
    """Install the overlay on ``base``'s switch and compose the two IRs.

    ``mapped`` is the base-program register exposed to authenticated
    C-DP reads and writes.
    """
    from repro.core.auth_dataplane import P4AuthDataplane

    P4AuthDataplane(base.switch, k_seed=0x5EED).install().map_register(mapped)
    return Program.from_switch(
        "p4auth", base.switch,
        [_verify_stage(mapped), *base.stages, _sign_stage()],
        headers=[
            *base.headers, *P4AUTH_HEADERS,
            # Key, digest scratch and verdict carried between the stages.
            HeaderDecl("p4auth_metadata", (("scratch", 288),)),
        ],
        # Hash distribution units, the dominant cost (Table II: 1.4% ->
        # 51.4%): wide keyed digests over header+payload consume many
        # crossbar slices; the KDF is 2 PRF runs x 2 units.
        hashes=[
            *base.hashes,
            HashDecl("digest_verify", 14),
            HashDecl("digest_sign", 14),
            HashDecl("kdf_prf_extract_expand", 4),
            HashDecl("key_exchange_auth", 2),
            HashDecl("alert_sign", 1),
        ],
        action_bits={t.name: t.action_bits for t in base.tables})


def p4auth_program(num_ports: int = NUM_PORTS) -> Program:
    """Table II's "With P4Auth" row: the overlay over the L3 forwarder."""
    from repro.systems.l3fwd import verify_program

    return p4auth_over(verify_program(num_ports), "flow_stats")
