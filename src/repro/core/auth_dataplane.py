"""P4Auth's data-plane module: verify-on-ingress, sign-on-egress.

This is the component the paper implements in 400 lines of P4 (§VII).  It
installs two pipeline stages on a :class:`~repro.dataplane.switch.DataplaneSwitch`:

- ``p4auth_verify`` (first stage): authenticates every arriving P4Auth
  message — C-DP register ops and key-exchange messages from the CPU
  port, DP-DP feedback and key-exchange messages from network ports —
  and dispatches the authenticated ones (register ops through the
  ``reg_id_to_name_mapping`` table, exactly as in Fig 15; key-exchange
  messages through the DP side of the KMP state machine).
- ``p4auth_sign`` (last stage): computes digests on every packet leaving
  through a keyed port, pushing a ``DP_FEEDBACK`` P4Auth header onto
  protected in-network messages (e.g., HULA probes) that don't carry one
  yet, and stripping the header when a packet exits the protected domain
  through an unkeyed (edge) port.

All digests run through the switch's hash extern, so they are charged to
hash units (Table II) and to per-packet processing time (Figs 18/19/21).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.core.constants import (
    ADHKD,
    EAK,
    KEYCTL,
    P4AUTH,
    P4AUTH_HEADER,
    REG_OP,
    AlertCode,
    HdrType,
    KeyExchType,
    RegOpType,
    payload_of,
)
from repro.core.confidentiality import derive_session_keys, encrypt_value
from repro.core.digest import DigestEngine
from repro.core.exchange import AdhkdEndpoint, EakEndpoint
from repro.core.keys import LOCAL_KEY_INDEX, DataplaneKeyStore
from repro.core.messages import (
    build_adhkd_message,
    build_alert,
    build_eak_message,
    build_reg_response,
)
from repro.core.regops import RegOpTable
from repro.core.secrets import is_internal_register
from repro.crypto.prng import XorShiftPrng
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import Emit, PipelineContext
from repro.dataplane.switch import DataplaneSwitch


#: ``flags`` bit marking an encrypted register-op value (see
#: :mod:`repro.core.confidentiality`).
FLAG_ENCRYPTED = 0x1

#: The message classes the data plane serves, and why it drops one whose
#: grammar-named payload is missing.
_MALFORMED = {
    HdrType.REGISTER_OP: "register op without a reg_op payload",
    HdrType.KEY_EXCHANGE: "key-exchange message with a malformed payload",
}


@dataclass
class P4AuthConfig:
    """Tunables for the data-plane module."""

    #: Max alert messages the DP sends to the controller per window
    #: (the §VIII DoS mitigation); None disables rate limiting.
    alert_threshold: Optional[int] = 100
    alert_window_s: float = 1.0
    #: Header names this switch authenticates DP-DP (e.g. {"hula_probe"}).
    protected_headers: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        self.protected_headers = frozenset(self.protected_headers)


@dataclass
class P4AuthStats:
    """Counters the evaluation reads out."""

    regops_served: int = 0
    digest_fail_cdp: int = 0
    digest_fail_dpdp: int = 0
    replays_detected: int = 0
    unknown_register: int = 0
    unauthenticated_dropped: int = 0
    alerts_raised: int = 0
    alerts_suppressed: int = 0
    feedback_verified: int = 0
    feedback_signed: int = 0
    kmp_dpdp_messages: int = 0
    kmp_dpdp_bytes: int = 0


class P4AuthDataplane:
    """The P4Auth program fragment resident in one switch data plane."""

    def __init__(self, switch: DataplaneSwitch, k_seed: int,
                 config: Optional[P4AuthConfig] = None):
        if k_seed == 0:
            # A zero key is "no key material" everywhere else
            # (``_select_key``), so K_seed must be a real one.
            raise ValueError(f"switch {switch.name!r}: K_seed must be non-zero")
        self.switch = switch
        self.k_seed = k_seed
        self.config = config or P4AuthConfig()
        # What either stage acts on; a frame with none of it skips both.
        # Tested against the packet's name-keyed header dict: no list.
        self._watched = self.config.protected_headers | {P4AUTH}
        self.keys = DataplaneKeyStore(switch.registers, switch.num_ports)
        self.digest = DigestEngine(extern=switch.hash)
        self.stats = P4AuthStats()
        # The switch's random() extern backs all protocol randomness.
        self._prng = XorShiftPrng(switch.random.random(64))

        registers = switch.registers
        self._kauth = registers.define("p4auth_kauth", 64, 1)
        self._expected_seq = registers.define("p4auth_expected_seq", 32, 1)
        self._dp_seq = registers.define("p4auth_dp_seq", 32, 1)
        size = switch.num_ports + 1
        self._port_seq = registers.define("p4auth_port_seq", 32, size)
        self._pending_r1 = registers.define("p4auth_pending_r1", 64, size)
        self._pending_s1 = registers.define("p4auth_pending_s1", 64, size)
        self._alert_count = registers.define("p4auth_alert_count", 32, 1)
        self._alert_window_start = 0.0

        # Fig 15's reg_id_to_name_mapping table: (regId, opType) -> action.
        # Two entries per mapped register, in the 1024-entry allocation
        # Table II prices (one SRAM block).
        self.regops = RegOpTable(switch, "reg_id_to_name_mapping",
                                 max_entries=1024)
        self.mapping_table = self.regops.table
        # Explicit miss action: returns no result so an unmapped
        # (regId, opType) still NACKs, but the table satisfies the PISA
        # every-table-has-a-default invariant (verify rule INV001).
        self.mapping_table.register_action("reg_op_miss", lambda: None)
        self.mapping_table.set_default("reg_op_miss")

        #: Out-of-band instrumentation hooks (measurement only, no wire
        #: traffic): fired when a key install completes, as ``hook(slot,
        #: now)`` / ``hook(port, slot, now)``.  ``slot`` is the version
        #: slot the key went into (0 or 1), never the key: subscribers
        #: include the controller's KMP, which must not learn K_port, and
        #: whoever else reaches the data plane object.
        self.on_local_key_installed: List[Callable[[int, float], None]] = []
        self.on_port_key_installed: List[Callable[[int, int, float], None]] = []
        #: Fired whenever the DP emits a key-exchange message directly to a
        #: neighbor data plane (port, packet) — used for Table III counting.
        self.on_dpdp_exchange_sent: List[Callable[[int, Packet], None]] = []

        self._installed = False
        switch.on_telemetry_bound.append(self._bind_telemetry)
        self._bind_telemetry(switch.telemetry)

    def _bind_telemetry(self, telemetry) -> None:
        """Resolve the handles counted per verified message or replay."""
        metrics = telemetry.metrics
        name = self.switch.name
        self._verified = {
            (result, channel): metrics.bind_counter(
                "p4auth_digest_verify_total", switch=name, result=result,
                channel=channel)
            for result in ("pass", "fail") for channel in ("cdp", "dpdp")}
        self._replays = {
            channel: metrics.bind_counter("p4auth_replay_rejected_total",
                                          switch=name, channel=channel)
            for channel in ("cdp", "dpdp")}

    @property
    def telemetry(self):
        """The switch's telemetry sink (rebound by the network layer)."""
        return self.switch.telemetry

    # ------------------------------------------------------------------
    # installation & register mapping
    # ------------------------------------------------------------------

    def install(self) -> "P4AuthDataplane":
        """Insert the verify/sign stages into the switch pipeline."""
        if self._installed:
            raise RuntimeError("P4Auth already installed on this switch")
        self.switch.pipeline.insert_stage(0, "p4auth_verify", self._verify_stage)
        self.switch.pipeline.add_stage("p4auth_sign", self._sign_stage)
        self._installed = True
        return self

    def map_register(self, name: str) -> int:
        """Expose a program register to authenticated C-DP read/write.

        Installs the two mapping-table entries (read and write) for the
        register and returns its p4info-style id.  P4Auth's own state
        (``p4auth_*`` registers, including all key material) is
        deliberately unmappable — the controller cannot read keys out of
        the data plane, and neither can an adversary with C-DP access.
        """
        if is_internal_register(name):
            raise PermissionError(
                f"register {name!r} is P4Auth-internal state and must not "
                "be exposed to C-DP operations"
            )
        return self.regops.map_register(name)

    def map_all_registers(self) -> Dict[str, int]:
        """Map every non-P4Auth register; returns name -> id."""
        return self.regops.map_all_registers()

    # ------------------------------------------------------------------
    # verify stage
    # ------------------------------------------------------------------

    def _verify_stage(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        # Metadata is per-switch PHV state; the previous hop's sign marker
        # must not suppress re-signing here (in-network messages mutate
        # hop by hop, e.g. INT records, HULA utilization).
        packet.metadata.pop("p4auth_signed", None)
        from_cpu = ctx.ingress_port == DataplaneSwitch.CPU_PORT
        if not from_cpu and self._watched.isdisjoint(packet._stack):
            return
        if not packet.has(P4AUTH):
            self._handle_unauthenticated(ctx)
            return
        hdr = packet.get(P4AUTH)
        key = self._select_key(hdr, ctx.ingress_port)
        if key is None or not self.digest.verify(key, packet):
            self._on_digest_fail(ctx, hdr, from_cpu)
            return
        self._verified["pass", "cdp" if from_cpu else "dpdp"].inc()

        hdr_type = hdr["hdrType"]
        malformed = _MALFORMED.get(hdr_type)
        if malformed is not None:
            if not self._payload_present(packet, hdr):
                ctx.drop(malformed)
                return
            if hdr_type == HdrType.REGISTER_OP:
                self._handle_reg_op(ctx, hdr)
            else:
                self._handle_key_exchange(ctx, hdr, from_cpu)
            ctx.stop()
        elif hdr_type == HdrType.DP_FEEDBACK:
            # Authenticated in-network feedback: let the host system's
            # stages process it.
            packet.metadata["p4auth_verified"] = True
            self.stats.feedback_verified += 1
        else:
            ctx.drop(f"unexpected hdrType {hdr_type} at data plane")

    @staticmethod
    def _payload_present(packet: Packet, hdr) -> bool:
        """Structural check: the payload the grammar names is present."""
        try:
            payload_type = payload_of(hdr["hdrType"], hdr["msgType"])
        except KeyError:
            return False
        return payload_type is None or packet.has(payload_type.name)

    def _select_key(self, hdr, ingress_port: int) -> Optional[int]:
        """Which key authenticates this message (None = no key material)."""
        key_ver = hdr["keyVer"]
        if ingress_port != DataplaneSwitch.CPU_PORT:
            # ``DataplaneSwitch.process`` refuses a port it does not have
            # before any stage runs, so this one is in 1..num_ports.
            return self.keys.port_key(ingress_port, key_ver) or None
        if hdr["hdrType"] == HdrType.KEY_EXCHANGE:
            msg_type = hdr["msgType"]
            if msg_type == KeyExchType.EAK_SALT1:
                return self.k_seed
            if (msg_type in (KeyExchType.ADHKD_MSG1, KeyExchType.ADHKD_MSG2)
                    and hdr["flags"] == 0):
                # Local-key *initialization* (initKeyExch, Fig 14a):
                # authenticated with K_auth.
                return self._kauth.read(0) or None
            # Redirected port-key legs (flags names the port), updKeyExch
            # and portKey* control messages: the local key.
        return self.keys.local_key(key_ver) or None

    def _handle_unauthenticated(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        if ctx.ingress_port == DataplaneSwitch.CPU_PORT:
            # Prevention, not just detection: an unauthenticated register
            # operation or protected feedback message on the CPU port (the
            # untrusted switch-OS channel) never reaches the program.
            if packet.has(REG_OP):
                self.stats.unauthenticated_dropped += 1
                self._raise_alert(ctx, AlertCode.UNAUTHENTICATED_REG_OP)
                ctx.drop("unauthenticated register operation")
            elif not self._watched.isdisjoint(packet._stack):
                self.stats.unauthenticated_dropped += 1
                self._raise_alert(ctx, AlertCode.DIGEST_MISMATCH_CDP)
                ctx.drop("unauthenticated protected message on the CPU port")
            return
        # Off the CPU port, only a frame with a protected header gets here.
        if self.keys.has_port_key(ctx.ingress_port):
            # A protected feedback message arrived on a keyed link without
            # a P4Auth header: a MitM stripped or never had the digest.
            self.stats.digest_fail_dpdp += 1
            self._note_verify_fail(ctx, "dpdp", "header_stripped")
            self._raise_alert(ctx, AlertCode.DIGEST_MISMATCH_DPDP,
                              detail=ctx.ingress_port)
            ctx.drop("unauthenticated protected feedback message")

    def _note_verify_fail(self, ctx: PipelineContext, channel: str,
                          cause: str) -> None:
        self._verified["fail", channel].inc()
        self.telemetry.tracer.emit("digest.verify_fail",
                                   switch=self.switch.name, channel=channel,
                                   cause=cause, port=ctx.ingress_port)

    def _note_replay(self, ctx: PipelineContext, seq: int,
                     channel: str) -> None:
        self.stats.replays_detected += 1
        self._replays[channel].inc()
        self.telemetry.tracer.emit("replay.reject", switch=self.switch.name,
                                   channel=channel, seq=seq)

    def _on_digest_fail(self, ctx: PipelineContext, hdr, from_cpu: bool) -> None:
        msg_type = hdr["msgType"]
        self._note_verify_fail(ctx, "cdp" if from_cpu else "dpdp",
                               "digest_mismatch")
        if from_cpu:
            self.stats.digest_fail_cdp += 1
            is_request = (
                hdr["hdrType"] == HdrType.REGISTER_OP
                and msg_type in (RegOpType.READ_REQ, RegOpType.WRITE_REQ)
                and ctx.packet.has(REG_OP)
            )
            if is_request:
                # The nAck doubles as the alert; it shares the alert
                # budget so a flood of tampered requests cannot jam the
                # DP -> C channel (§VIII DoS mitigation).
                if self._alert_budget_ok(ctx.now):
                    payload = ctx.packet.get(REG_OP)
                    nack = build_reg_response(
                        ok=False, reg_id=payload["regId"],
                        index=payload["index"], value=0,
                        seq_num=hdr["seqNum"],
                        key_ver=self.keys.active_version(LOCAL_KEY_INDEX),
                    )
                    self._sign_local(nack)
                    ctx.to_controller(nack, reason="digest mismatch")
                    self.stats.alerts_raised += 1
            else:
                self._raise_alert(ctx, AlertCode.DIGEST_MISMATCH_CDP)
        else:
            self.stats.digest_fail_dpdp += 1
            self._raise_alert(ctx, AlertCode.DIGEST_MISMATCH_DPDP,
                              detail=ctx.ingress_port)
        ctx.drop("p4auth digest verification failed")

    # ------------------------------------------------------------------
    # register operations (Fig 8 / Fig 15)
    # ------------------------------------------------------------------

    def _handle_reg_op(self, ctx: PipelineContext, hdr) -> None:
        payload = ctx.packet.get(REG_OP)
        seq = hdr["seqNum"]
        encrypted = bool(hdr["flags"] & FLAG_ENCRYPTED)
        expected = self._expected_seq.read(0)
        if seq < expected:
            # Authenticated but stale: a replayed request (§VIII).
            self._note_replay(ctx, seq, "cdp")
            self._raise_alert(ctx, AlertCode.REPLAY_SUSPECTED, detail=seq)
            self._respond_reg(ctx, ok=False, payload=payload, seq=seq,
                              value=0, encrypted=encrypted,
                              key_ver=hdr["keyVer"])
            return
        self._expected_seq.write(0, (seq + 1) & 0xFFFFFFFF)

        value = payload["value"]
        if encrypted:
            # Encrypt-then-MAC order: the digest already verified over the
            # ciphertext; decrypt only now (costs hash units).
            session = derive_session_keys(self.keys.local_key(hdr["keyVer"]))
            value = encrypt_value(session, seq, value)
            self._charge_kdf()
        result = self.regops.apply(payload["regId"], hdr["msgType"],
                                   payload["index"], value)
        if result is None:
            # Unmapped (regId, opType), or an index / value that does not
            # fit the register: one NACK, one alert code.
            self.stats.unknown_register += 1
            self._raise_alert(ctx, AlertCode.UNKNOWN_REGISTER,
                              detail=payload["regId"])
            self._respond_reg(ctx, ok=False, payload=payload, seq=seq,
                              value=0, encrypted=encrypted,
                              key_ver=hdr["keyVer"])
            return
        self.stats.regops_served += 1
        self._respond_reg(ctx, ok=True, payload=payload, seq=seq,
                          value=result, encrypted=encrypted,
                          key_ver=hdr["keyVer"])

    def _respond_reg(self, ctx: PipelineContext, ok: bool, payload, seq: int,
                     value: int, encrypted: bool, key_ver: int) -> None:
        # Respond under the same key version that authenticated the
        # request: during a rollover the controller may not have
        # installed the DP's newest key yet (§VI-C consistent updates).
        # An encrypted request gets an encrypted reply: the flag is under
        # the digest, so the controller asked for it.
        if encrypted:
            session = derive_session_keys(self.keys.local_key(key_ver))
            value = encrypt_value(session, seq, value, response=True)
        # Only a verified request gets here: p4auth + reg_op as the
        # controller built them.  Rewrite it (a P4 program cannot allocate
        # a packet); seqNum, regId, index, hdrType and length already fit.
        response = ctx.packet
        hdr = response.get(P4AUTH)
        hdr["msgType"] = int(RegOpType.ACK if ok else RegOpType.NACK)
        hdr["flags"] = FLAG_ENCRYPTED if encrypted else 0
        hdr["keyVer"] = key_ver
        payload["value"] = value
        self.digest.sign(self.keys.local_key(key_ver), response)
        ctx.to_controller(response, reason="reg-op response")

    # ------------------------------------------------------------------
    # key management: the DP side of EAK / ADHKD (Figs 11, 12, 14)
    # ------------------------------------------------------------------

    def _handle_key_exchange(self, ctx: PipelineContext, hdr,
                             from_cpu: bool) -> None:
        msg_type = hdr["msgType"]
        if from_cpu:
            if msg_type == KeyExchType.EAK_SALT1:
                self._eak_respond(ctx, hdr)
            elif msg_type == KeyExchType.ADHKD_MSG1:
                self._adhkd_respond_cpu(ctx, hdr)
            elif msg_type == KeyExchType.UPD_MSG1:
                self._upd_respond_cpu(ctx, hdr)
            elif msg_type == KeyExchType.ADHKD_MSG2:
                self._adhkd_finish_redirected(ctx, hdr)
            elif msg_type == KeyExchType.PORT_KEY_INIT:
                self._port_key_start(ctx, hdr, via_controller=True)
            elif msg_type == KeyExchType.PORT_KEY_UPDATE:
                self._port_key_start(ctx, hdr, via_controller=False)
            else:
                ctx.drop(f"unexpected key-exchange msgType {msg_type} from C")
        else:
            if msg_type == KeyExchType.ADHKD_MSG1:
                self._adhkd_respond_link(ctx, hdr)
            elif msg_type == KeyExchType.ADHKD_MSG2:
                self._adhkd_finish_link(ctx, hdr)
            else:
                ctx.drop(f"unexpected key-exchange msgType {msg_type} on link")

    def _install_key(self, index: int, master: int, version: int,
                     now: float) -> None:
        """Install a derived key and notify the hooks — the one place
        they are called from, and it tells them the slot, never
        ``master``."""
        slot = self.keys.install_at(index, master, version)
        if index == LOCAL_KEY_INDEX:
            for hook in self.on_local_key_installed:
                hook(slot, now)
            return
        for hook in self.on_port_key_installed:
            hook(index, slot, now)

    def _eak_respond(self, ctx: PipelineContext, hdr) -> None:
        salt1 = ctx.packet.get(EAK)["salt"]
        endpoint = EakEndpoint(self.k_seed, self._prng)
        salt2, k_auth = endpoint.respond(salt1)
        self._charge_kdf()
        self._kauth.write(0, k_auth)
        reply = build_eak_message(KeyExchType.EAK_SALT2, salt2, hdr["seqNum"])
        self.digest.sign(self.k_seed, reply)
        ctx.to_controller(reply, reason="EAK salt2")

    def _adhkd_respond_cpu(self, ctx: PipelineContext, hdr) -> None:
        """ADHKD_MSG1 via CPU: local-key exchange, or a redirected
        port-key init leg (flags carries the local port number)."""
        payload = ctx.packet.get(ADHKD)
        context_port = hdr["flags"]
        if context_port and self._leg_port(ctx, context_port) is None:
            return
        endpoint = AdhkdEndpoint(self._prng)
        pk2, salt2, master = endpoint.respond(payload["pk"], payload["salt"])
        self._charge_kdf()
        reply = build_adhkd_message(KeyExchType.ADHKD_MSG2, pk2, salt2,
                                    hdr["seqNum"])
        if context_port == 0:
            # Local-key initialization: the reply is authenticated with
            # K_auth, and the fresh key always (re)occupies version 0 so
            # retried initializations cannot drift the version counters.
            self.digest.sign(self._kauth.read(0), reply)
            ctx.to_controller(reply, reason="ADHKD msg2 (local key)")
            self._install_key(LOCAL_KEY_INDEX, master, 0, ctx.now)
        else:
            reply.get(P4AUTH)["flags"] = context_port
            self._sign_local(reply)
            ctx.to_controller(reply, reason="ADHKD msg2 (port key, redirected)")
            self._install_key(context_port, master, 0, ctx.now)

    def _upd_respond_cpu(self, ctx: PipelineContext, hdr) -> None:
        """updKeyExch leg 1 (Fig 14b): roll the local key.

        The reply is signed with the *same* key slot that authenticated
        the request, and the new key installs into the *next* slot — both
        derived from the request's keyVer tag, so a retried update after
        a lost reply re-synchronizes instead of drifting.
        """
        payload = ctx.packet.get(ADHKD)
        endpoint = AdhkdEndpoint(self._prng)
        pk2, salt2, master = endpoint.respond(payload["pk"], payload["salt"])
        self._charge_kdf()
        request_ver = hdr["keyVer"]
        reply = build_adhkd_message(KeyExchType.UPD_MSG2, pk2, salt2,
                                    hdr["seqNum"], key_ver=request_ver)
        self.digest.sign(self.keys.local_key(request_ver), reply)
        ctx.to_controller(reply, reason="updKeyExch msg2 (local key)")
        self._install_key(LOCAL_KEY_INDEX, master, request_ver + 1, ctx.now)

    def _adhkd_finish_redirected(self, ctx: PipelineContext, hdr) -> None:
        """ADHKD_MSG2 via CPU: completes a redirected port-key init we
        started with PORT_KEY_INIT."""
        context_port = hdr["flags"]
        if context_port and self._leg_port(ctx, context_port) is None:
            return
        # Redirected port-key *initialization*: always version 0.
        self._finish_port_exchange(ctx, hdr, context_port, version=0)

    def _adhkd_respond_link(self, ctx: PipelineContext, hdr) -> None:
        """ADHKD_MSG1 over a link: the peer is rolling our shared port key."""
        port = ctx.ingress_port
        seq = hdr["seqNum"]
        if seq <= self._port_seq.read(port):
            self._note_replay(ctx, seq, "dpdp")
            self._raise_alert(ctx, AlertCode.REPLAY_SUSPECTED, detail=seq)
            ctx.drop("replayed DP-DP key exchange message")
            return
        self._port_seq.write(port, seq)
        payload = ctx.packet.get(ADHKD)
        endpoint = AdhkdEndpoint(self._prng)
        pk2, salt2, master = endpoint.respond(payload["pk"], payload["salt"])
        self._charge_kdf()
        request_ver = hdr["keyVer"]
        reply = build_adhkd_message(KeyExchType.ADHKD_MSG2, pk2, salt2, seq,
                                    key_ver=request_ver)
        self.digest.sign(self.keys.port_key(port, request_ver), reply)
        reply.metadata["p4auth_signed"] = True
        self._count_dpdp(port, reply)
        ctx.emit(port, reply)
        self._install_key(port, master, request_ver + 1, ctx.now)

    def _adhkd_finish_link(self, ctx: PipelineContext, hdr) -> None:
        """ADHKD_MSG2 over a link: completes a direct port-key update."""
        # Direct update: the new key installs at (authenticated keyVer + 1).
        self._finish_port_exchange(ctx, hdr, ctx.ingress_port,
                                   version=hdr["keyVer"] + 1)

    def _leg_port(self, ctx: PipelineContext, port: int) -> Optional[int]:
        """The local port a key-exchange leg names (``keyctl.port``, or
        ``flags`` on a redirected leg) if this switch has it; otherwise
        alert, drop and ``None`` — an authenticated message is still
        not allowed to index past the per-port registers."""
        if 1 <= port <= self.switch.num_ports:
            return port
        self._raise_alert(ctx, AlertCode.KEY_EXCHANGE_TAMPER, detail=port)
        ctx.drop(f"portKey message for invalid port {port}")
        return None

    def _finish_port_exchange(self, ctx: PipelineContext, hdr, port: int,
                              version: int) -> None:
        """Complete the exchange pending on ``port`` (0: a MSG2 that
        names none) and install its key at ``version``."""
        if port == 0 or self._pending_r1.read(port) == 0:
            self._raise_alert(ctx, AlertCode.KEY_EXCHANGE_TAMPER, detail=port)
            ctx.drop("ADHKD msg2 without a pending exchange")
            return
        payload = ctx.packet.get(ADHKD)
        endpoint = AdhkdEndpoint(self._prng)
        endpoint.resume(self._pending_r1.read(port), self._pending_s1.read(port))
        master = endpoint.finish(payload["pk"], payload["salt"])
        self._charge_kdf()
        self._pending_r1.write(port, 0)
        self._pending_s1.write(port, 0)
        self._install_key(port, master, version, ctx.now)

    def _port_key_start(self, ctx: PipelineContext, hdr,
                        via_controller: bool) -> None:
        port = self._leg_port(ctx, ctx.packet.get(KEYCTL)["port"])
        if port is None:
            return
        endpoint = AdhkdEndpoint(self._prng)
        pk1, salt1 = endpoint.start()
        r1, s1 = endpoint.pending_state()
        self._pending_r1.write(port, r1)
        self._pending_s1.write(port, s1)
        seq = self._next_dp_seq()
        msg1 = build_adhkd_message(KeyExchType.ADHKD_MSG1, pk1, salt1, seq)
        if via_controller:
            msg1.get(P4AUTH)["flags"] = port
            self._sign_local(msg1)
            ctx.to_controller(msg1, reason="ADHKD msg1 (port key, redirected)")
        else:
            msg1.get(P4AUTH)["keyVer"] = self.keys.active_version(port)
            self.digest.sign(self.keys.port_key(port), msg1)
            msg1.metadata["p4auth_signed"] = True
            self._count_dpdp(port, msg1)
            ctx.emit(port, msg1)

    # ------------------------------------------------------------------
    # sign stage
    # ------------------------------------------------------------------

    def _sign_stage(self, ctx: PipelineContext) -> None:
        for action in ctx.actions:
            if not isinstance(action, Emit):
                continue
            packet = action.packet
            if (self._watched.isdisjoint(packet._stack)
                    or packet.metadata.get("p4auth_signed")):
                continue
            keyed = self.keys.has_port_key(action.port)
            if packet.has(P4AUTH):
                if keyed:
                    self._sign_for_port(packet, action.port)
                else:
                    # Leaving the protected domain through an edge port.
                    packet.remove(P4AUTH)
            elif keyed:  # a protected header without a P4Auth one
                auth = P4AUTH_HEADER.instantiate(
                    hdrType=int(HdrType.DP_FEEDBACK), msgType=0,
                    seqNum=self._next_dp_seq(), keyVer=0, flags=0,
                    length=0, digest=0,
                )
                packet.push(P4AUTH, auth)
                self._sign_for_port(packet, action.port)
            packet.metadata["p4auth_signed"] = True

    def _sign_for_port(self, packet: Packet, port: int) -> None:
        packet.get(P4AUTH)["keyVer"] = self.keys.active_version(port)
        self.digest.sign(self.keys.port_key(port), packet)
        self.stats.feedback_signed += 1

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _sign_local(self, packet: Packet) -> None:
        packet.get(P4AUTH)["keyVer"] = self.keys.active_version(LOCAL_KEY_INDEX)
        self.digest.sign(self.keys.local_key(), packet)

    def _next_dp_seq(self) -> int:
        return self._dp_seq.read_modify_write(0, lambda v: v + 1)

    def _charge_kdf(self) -> None:
        # The KDF's two PRF executions run on hash units; charge them to
        # the extern so the timing model sees the cost (§VI-D).
        self.switch.hash.invocations += 2

    def _alert_budget_ok(self, now: float) -> bool:
        if self.config.alert_threshold is None:
            return True
        if now - self._alert_window_start >= self.config.alert_window_s:
            self._alert_window_start = now
            self._alert_count.write(0, 0)
        count = self._alert_count.read(0)
        if count >= self.config.alert_threshold:
            self.stats.alerts_suppressed += 1
            return False
        self._alert_count.write(0, count + 1)
        return True

    def _raise_alert(self, ctx: PipelineContext, code: AlertCode,
                     detail: int = 0) -> None:
        if not self._alert_budget_ok(ctx.now):
            return
        self.stats.alerts_raised += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("p4auth_alerts_total",
                                      switch=self.switch.name,
                                      code=code.name).inc()
            telemetry.tracer.emit("alert.raised", switch=self.switch.name,
                                  code=code.name, detail=detail)
        alert = build_alert(code, detail, self._next_dp_seq())
        key = self.keys.local_key() or self._kauth.read(0) or self.k_seed
        alert.get(P4AUTH)["keyVer"] = self.keys.active_version(LOCAL_KEY_INDEX)
        self.digest.sign(key, alert)
        ctx.to_controller(alert, reason=f"alert:{code.name}")

    def _count_dpdp(self, port: int, packet: Packet) -> None:
        self.stats.kmp_dpdp_messages += 1
        self.stats.kmp_dpdp_bytes += packet.size_bytes
        for hook in self.on_dpdp_exchange_sent:
            hook(port, packet)
