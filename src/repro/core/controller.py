"""The P4Auth controller.

Composes authenticated register read/write requests, verifies responses,
logs data-plane alerts, runs the controller side of the key-management
protocol (via :class:`~repro.core.kmp.KeyManagementProtocol`), and applies
the §VIII DoS heuristics (outstanding-request threshold, unacknowledged
sequence tracking).

The controller's view of the world is exactly what the paper grants it: it
shares ``K_seed`` with each switch binary, learns register identifiers
from the p4info-equivalent id map at provisioning time, and afterwards
talks to data planes only through (possibly adversarial) control channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.auth_dataplane import FLAG_ENCRYPTED, P4AuthDataplane
from repro.core.confidentiality import derive_session_keys, encrypt_value
from repro.core.constants import (
    ALERT,
    P4AUTH,
    REG_OP,
    AlertCode,
    HdrType,
    RegOpType,
)
from repro.core.digest import DigestEngine
from repro.core.keys import ControllerKeyStore
from repro.core.messages import (
    build_reg_read_request,
    build_reg_write_request,
)
from repro.core.requests import (
    PendingRequest,
    RequestLifecycle,
    ResponseCallback,
    RetryPolicy,
)
from repro.crypto.prng import XorShiftPrng
from repro.dataplane.packet import Packet
from repro.net.network import Network

#: Buckets for the signed-burst size histogram (requests per sign call).
SIGN_BATCH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
OUTSTANDING_THRESHOLD = 1000  # the §IV DoS heuristic's default budget


@dataclass
class AlertRecord:
    """One alert received from a data plane."""

    time: float
    switch: str
    code: AlertCode
    detail: int


@dataclass
class TamperRecord:
    """A response the controller refused: bad digest or encryption mode."""

    time: float
    switch: str
    seq_num: int
    reason: str


@dataclass
class ControllerStats:
    requests_sent: int = 0
    acks_received: int = 0
    nacks_received: int = 0
    tampered_responses: int = 0
    alerts_received: int = 0
    unsolicited_responses: int = 0
    #: nAcks for requests this controller never sent — a strong signal
    #: that someone is injecting forged messages at the data plane.
    unsolicited_nacks: int = 0
    dos_suspected: bool = False
    #: Requests re-issued after a response timeout (bounded-retry mode).
    request_retries: int = 0
    #: Requests that exhausted their attempts and surfaced a terminal
    #: ``callback(False, 0)`` instead of hanging forever.
    requests_abandoned: int = 0


class P4AuthController:
    """The logically centralized controller of the P4Auth deployment."""

    def __init__(self, network: Network, seed: int = 0xC0FFEE,
                 outstanding_threshold: int = OUTSTANDING_THRESHOLD,
                 encrypt_regops: bool = False,
                 request_timeout_s: Optional[float] = None):
        self.network = network
        self.sim = network.sim
        self.costs = network.costs
        self.telemetry = network.telemetry
        self.digest = DigestEngine()
        metrics = self.telemetry.metrics
        self._sign_batches = {
            lane: metrics.bind_counter("controller_sign_batches_total",
                                       lane=lane)
            for lane in ("scalar", "vector")}
        self._sign_batch_size = metrics.bind_histogram(
            "controller_sign_batch_size", buckets=SIGN_BATCH_BUCKETS)
        self.keys = ControllerKeyStore()
        self.prng = XorShiftPrng(seed)
        self.stats = ControllerStats()
        self.alerts: List[AlertRecord] = []
        self.tamper_events: List[TamperRecord] = []
        self.outstanding_threshold = outstanding_threshold
        #: Encrypt register-op values end to end (the §XI extension):
        #: requests carry ``FLAG_ENCRYPTED``, and a switch answers a
        #: flagged request in ciphertext.
        self.encrypt_regops = encrypt_regops
        self.on_tamper: List[Callable[[TamperRecord], None]] = []
        self.on_alert: List[Callable[[AlertRecord], None]] = []
        #: Set by :meth:`halt` — a crashed process composes and sends
        #: nothing more, even if in-flight Python frames keep running.
        self.halted = False
        #: Sequence numbers, the pending table, FIFO departure and the
        #: opt-in bounded retries: with ``request_timeout_s`` set, a
        #: request unanswered after that long is re-issued (fresh seq)
        #: up to the policy's ``max_attempts`` times, then abandoned with
        #: a terminal ``callback(False, 0)``.  ``None`` (the default) keeps
        #: the fire-and-wait behaviour that the DoS heuristic
        #: (``outstanding_threshold``) is tuned for.
        self.requests = RequestLifecycle(
            network, "P4Auth",
            RetryPolicy(request_timeout_s),
            self._issue, self.stats)
        self._seq = self.requests.seq
        self._reg_ids: Dict[str, Dict[str, int]] = {}
        self.dataplanes: Dict[str, P4AuthDataplane] = {}
        network.attach_controller(self)
        # Constructed here to avoid exposing two objects users must wire up.
        from repro.core.kmp import KeyManagementProtocol
        self.kmp = KeyManagementProtocol(self)

    # ------------------------------------------------------------------
    # provisioning
    # ------------------------------------------------------------------

    def provision(self, dataplane: P4AuthDataplane) -> None:
        """Register a switch: share K_seed and learn its register ids.

        Mirrors switch bootup: K_seed rides in the P4 binary, and the
        compiler's p4info output gives the controller the register-id map.
        """
        name = dataplane.switch.name
        self.keys.set_seed(name, dataplane.k_seed)
        self._seq.setdefault(name, 1)
        self.dataplanes[name] = dataplane
        self.refresh_p4info(name)
        self.kmp.observe_dataplane(dataplane)

    def refresh_p4info(self, switch: str) -> None:
        """Re-read a provisioned switch's register-id map.

        Needed when program registers are declared after provisioning
        (e.g., a pipeline reconfiguration).
        """
        dataplane = self.dataplanes[switch]
        self._reg_ids[switch] = {
            reg_name: reg_id
            for reg_id, reg_name in dataplane.switch.registers.id_map().items()
        }

    def register_id(self, switch: str, reg_name: str) -> int:
        try:
            return self._reg_ids[switch][reg_name]
        except KeyError:
            raise KeyError(
                f"switch {switch!r} has no register {reg_name!r} "
                "(is it provisioned?)"
            ) from None

    def next_seq(self, switch: str) -> int:
        return self.requests.next_seq(switch)

    def restore_seq(self, switch: str, next_seq: int) -> None:
        """Warm-restart entry point: resume issuing at ``next_seq``.

        Recovery sets this to the last *journaled horizon* — at or past
        any number the dead controller could have used — so the data
        plane's monotonic ``expected_seq`` defense never sees a reuse.
        """
        self._seq[switch] = next_seq & 0xFFFFFFFF

    def seq_divergence(self) -> Dict[str, int]:
        """Per switch: controller next-seq minus the DP's expected seq.

        Always >= 0 in an unforged fleet (the data plane only advances on
        controller-signed register ops) — a negative value means someone
        advanced the DP without the controller, i.e. a forged write.  It
        is not 0 at rest: key-management messages draw seqs from the
        same per-switch counter and ``p4auth_expected_seq`` never sees
        them, so a freshly keyed switch reads the KMP messages it was
        sent (3 each after an m=8, degree-2 bootstrap).  The next
        verified register op realigns the pair to 0, which is why
        :func:`~repro.core.kmp.honest_load_audit` demands agreement only
        on ``must_agree``.
        """
        divergence: Dict[str, int] = {}
        for switch in sorted(self.dataplanes):
            expected = self.dataplanes[switch].switch.registers.get(
                "p4auth_expected_seq").read(0)
            divergence[switch] = self.requests.seq[switch] - expected
        return divergence

    def tamper_indicators(self) -> Dict[str, int]:
        """Controller+DP counters that a forged write would have to trip."""
        stats = self.stats
        totals = {"tampered_responses": stats.tampered_responses,
                  "unsolicited_responses": stats.unsolicited_responses,
                  "unsolicited_nacks": stats.unsolicited_nacks,
                  "digest_fail_cdp": 0, "digest_fail_dpdp": 0,
                  "replays_detected": 0, "alerts_raised": 0}
        for dataplane in self.dataplanes.values():
            totals["digest_fail_cdp"] += dataplane.stats.digest_fail_cdp
            totals["digest_fail_dpdp"] += dataplane.stats.digest_fail_dpdp
            totals["replays_detected"] += dataplane.stats.replays_detected
            totals["alerts_raised"] += dataplane.stats.alerts_raised
        return totals

    def halt(self) -> None:
        """Kill this controller instance (crash modeling).

        Cancels every pending-request timeout (a dead process has no
        timers), forgets in-flight state, and detaches from the network
        so late responses drop instead of reaching a ghost.  The object
        must not be used afterwards — recovery builds a fresh one.
        """
        self.halted = True
        self.requests.clear()
        if self.network.controller is self:
            self.network.controller = None

    # ------------------------------------------------------------------
    # authenticated register operations (Fig 8)
    # ------------------------------------------------------------------

    def read_register(self, switch: str, reg_name: str, index: int,
                      callback: Optional[ResponseCallback] = None) -> int:
        """Issue an authenticated ``readReq``; returns its seq number.

        ``callback(ok, value)`` fires when the (verified) response
        arrives.  A tampered response never reaches the callback — it is
        recorded as a :class:`TamperRecord` instead.
        """
        return self._issue("read", switch, reg_name, index, 0, callback)

    def write_register(self, switch: str, reg_name: str, index: int,
                       value: int,
                       callback: Optional[ResponseCallback] = None) -> int:
        """Issue an authenticated ``writeReq``; returns its seq number."""
        return self._issue("write", switch, reg_name, index, value, callback)

    def request_many(self, switch: str, ops: Sequence[Tuple],
                     ) -> List[int]:
        """Compose, sign, and dispatch a burst of requests to one switch.

        ``ops`` is a sequence of ``(kind, reg_name, index, value,
        callback)`` tuples (``value`` ignored for reads).  The burst is
        byte-identical to issuing each op through
        :meth:`read_register`/:meth:`write_register` back to back at the
        same instant — same sequence numbers, same per-request compose
        costs, same FIFO departure horizon — but the Eqn 4 digests are
        computed in one :meth:`DigestEngine.sign_many` call, which lets
        the engine take the vectorized lane from two requests up.  A
        burst that cannot be composed (a register the switch lacks)
        raises before anything is dispatched.  Returns the assigned
        sequence numbers in op order.
        """
        key = self.keys.local_key(switch)
        requests = [
            PendingRequest(kind, switch, reg_name, index,
                           value if kind == "write" else 0, callback)
            for kind, reg_name, index, value, callback in ops]
        composed = [self._compose(request) for request in requests]
        self.digest.sign_many(key, [packet for _seq, packet in composed])
        if composed:
            self._sign_batches[self.digest.lane_for(len(composed))].inc()
            self._sign_batch_size.observe(len(composed))
        for request, (seq, packet) in zip(requests, composed):
            self._dispatch(seq, packet, request)
        return [seq for seq, _packet in composed]

    def _issue(self, kind: str, switch: str, reg_name: str, index: int,
               value: int, callback: Optional[ResponseCallback],
               attempt: int = 1) -> int:
        """One request, first attempt or retry: compose, sign, dispatch."""
        request = PendingRequest(kind, switch, reg_name, index, value,
                                 callback, attempt)
        seq, packet = self._compose(request)
        self.digest.sign(self.keys.local_key(switch), packet)
        self._dispatch(seq, packet, request)
        return seq

    def _compose(self, request: PendingRequest) -> Tuple[int, Packet]:
        """The unsigned Fig 8 message for ``request`` under a fresh seq.

        ``request.value`` stays the plain operand; an encrypted write
        carries ciphertext bound to *this* seq, so a retry re-encrypts.
        """
        switch = request.switch
        seq = self.next_seq(switch)
        key_ver = self.keys.local_key_version(switch)
        reg_id = self.register_id(switch, request.reg_name)
        if request.kind == "read":
            packet = build_reg_read_request(reg_id, request.index, seq,
                                            key_ver=key_ver)
        elif request.kind == "write":
            value = request.value
            if self.encrypt_regops:
                session = derive_session_keys(
                    self.keys.local_key(switch, key_ver))
                value = encrypt_value(session, seq, value)
            packet = build_reg_write_request(reg_id, request.index, value,
                                             seq, key_ver=key_ver)
        else:
            raise ValueError(f"unknown request kind {request.kind!r}")
        if self.encrypt_regops:
            packet.get(P4AUTH)["flags"] = FLAG_ENCRYPTED
        return seq, packet

    def _dispatch(self, seq: int, packet: Packet,
                  request: PendingRequest) -> None:
        if self.halted:
            # A dead process's frame may still be mid-burst when the
            # kill lands: the request was composed but never reached
            # the NIC.  Dropping it here (no pending entry, no
            # departure) is the crash semantics recovery is built for.
            return
        compose_s = (self.costs.compose_read_s if request.kind == "read"
                     else self.costs.compose_write_s)
        self.requests.dispatch(
            seq, request,
            self.sim.now + compose_s + self.costs.controller_digest_s,
            self.network.send_packet_out, request.switch, packet)
        self.stats.requests_sent += 1
        if self.requests.outstanding_count() > self.outstanding_threshold:
            self.stats.dos_suspected = True

    # ------------------------------------------------------------------
    # PacketIn handling
    # ------------------------------------------------------------------

    def handle_packet_in(self, switch: str, packet: Packet) -> None:
        """Entry point the network calls for every PacketIn message."""
        if not packet.has(P4AUTH):
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "controller_packet_in_total", switch=switch,
                    hdr_type="none").inc()
            self.stats.unsolicited_responses += 1
            return
        hdr = packet.get(P4AUTH)
        hdr_type = hdr["hdrType"]
        if self.telemetry.enabled:
            try:
                type_name = HdrType(hdr_type).name
            except ValueError:
                type_name = str(hdr_type)
            self.telemetry.metrics.counter(
                "controller_packet_in_total", switch=switch,
                hdr_type=type_name).inc()
            self.telemetry.tracer.emit("controller.packet_in", switch=switch,
                                       hdr_type=type_name,
                                       seq=hdr["seqNum"])
        if hdr_type == HdrType.REGISTER_OP:
            self._handle_reg_response(switch, packet, hdr)
        elif hdr_type == HdrType.ALERT:
            self._handle_alert(switch, packet, hdr)
        elif hdr_type == HdrType.KEY_EXCHANGE:
            self.kmp.handle_message(switch, packet)
        else:
            self.stats.unsolicited_responses += 1

    def _handle_reg_response(self, switch: str, packet: Packet, hdr) -> None:
        try:
            key = self.keys.local_key(switch, hdr["keyVer"])
        except KeyError:
            # A response for a switch this controller holds no key for —
            # possible while a warm restart is still re-establishing
            # partially-journaled key material.  Unverifiable, so it is
            # not acted on (and not a tamper claim either: there is no
            # key to judge the digest against).
            self.stats.unsolicited_responses += 1
            return
        if not self.digest.verify(key, packet):
            self._record_tamper(switch, hdr["seqNum"],
                               "register response digest mismatch")
            return
        seq = hdr["seqNum"]
        ok = hdr["msgType"] == RegOpType.ACK
        encrypted = bool(hdr["flags"] & FLAG_ENCRYPTED)
        if encrypted != self.encrypt_regops and (encrypted or ok):
            # A switch answers in its request's mode (the knob's), but for
            # a failed digest's nAck: built fresh, unflagged, value 0.
            self._record_tamper(switch, seq, "register response in the "
                                "wrong encryption mode")
            return
        # Response verification costs one controller-side digest.
        pending = self.requests.complete(switch, seq,
                                         self.costs.controller_digest_s)
        if pending is None:
            # An authenticated duplicate (replayed response) or a response
            # to a request we gave up on — or, for nAcks, fallout from an
            # adversary injecting forged requests at the data plane.
            self.stats.unsolicited_responses += 1
            if hdr["msgType"] == RegOpType.NACK:
                self.stats.unsolicited_nacks += 1
            return
        value = packet.get(REG_OP)["value"]
        if encrypted:
            session = derive_session_keys(
                self.keys.local_key(switch, hdr["keyVer"]))
            value = encrypt_value(session, seq, value, response=True)
        if ok:
            self.stats.acks_received += 1
        else:
            self.stats.nacks_received += 1
        if pending.callback is not None:
            self.sim.schedule(self.costs.controller_digest_s,
                              pending.callback, ok, value)

    def _handle_alert(self, switch: str, packet: Packet, hdr) -> None:
        # Alerts are signed with the best key the DP had at the time
        # (local key, falling back to K_auth, falling back to K_seed).
        candidates = []
        if self.keys.has_local_key(switch):
            candidates.append(self.keys.local_key(switch, hdr["keyVer"]))
        if self.keys.has_auth_key(switch):
            candidates.append(self.keys.auth_key(switch))
        candidates.append(self.keys.seed(switch))
        if not any(self.digest.verify(key, packet) for key in candidates):
            self._record_tamper(switch, hdr["seqNum"], "alert digest mismatch")
            return
        payload = packet.get(ALERT)
        record = AlertRecord(
            self.sim.now, switch, AlertCode(payload["code"]), payload["detail"]
        )
        self.alerts.append(record)
        self.stats.alerts_received += 1
        for hook in self.on_alert:
            hook(record)

    def _record_tamper(self, switch: str, seq: int, reason: str) -> None:
        record = TamperRecord(self.sim.now, switch, seq, reason)
        self.tamper_events.append(record)
        self.stats.tampered_responses += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("controller_tamper_total",
                                           switch=switch).inc()
            self.telemetry.tracer.emit("controller.tamper", switch=switch,
                                       seq=seq, reason=reason)
        for hook in self.on_tamper:
            hook(record)
