"""Key management protocol — the controller side (paper §VI-C, Fig 14).

Four operations, realized with the EAK/ADHKD message flows:

- **local key init** (switch boot): EAK with K_seed derives K_auth, then
  ADHKD authenticated with K_auth derives K_local.  4 messages.
- **local key update** (rollover): ADHKD authenticated with the current
  K_local.  2 messages.
- **port key init** (port activation): controller sends ``portKeyInit``;
  the two data planes run ADHKD *redirected through the controller*
  (``initKeyExch``), each leg authenticated with the respective local
  key.  5 messages.  Thanks to DH, the controller relays the exchange but
  never learns the resulting K_port.
- **port key update**: controller sends ``portKeyUpdate``; the data
  planes run ADHKD directly over their link, authenticated with the
  current K_port.  3 messages (1 C-DP + 2 DP-DP).

The class also automates the paper's F3 requirement: topology-driven key
establishment (LLDP-style port events) and periodic rollover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable, ClassVar, Dict, Iterable, List, Optional, Tuple, Union,
)

from repro.core.constants import (
    ADHKD,
    EAK,
    P4AUTH,
    KeyExchType,
)
from repro.core.exchange import AdhkdEndpoint, EakEndpoint
from repro.core.messages import (
    build_adhkd_message,
    build_eak_message,
    build_keyctl_message,
)
from repro.core.requests import RetryPolicy
from repro.dataplane.packet import Packet
from repro.telemetry import KMP_RTT_BUCKETS

#: A key operation's one terminal callback: called exactly once, with the
#: :class:`KmpOpRecord` (``ok``) or, abandoned, the :class:`KmpFailure`.
DoneCallback = Callable[[Union["KmpOpRecord", "KmpFailure"]], None]


@dataclass
class KmpOpRecord:
    """One completed key-management operation (a Fig 20 / Table III row)."""

    ok: ClassVar[bool] = True

    op: str  # "local_init" | "local_update" | "port_init" | "port_update"
    switch: str
    port: Optional[int]
    rtt_s: float
    messages: int
    bytes: int


@dataclass
class KmpStats:
    """All completed operations, queryable by operation type."""

    records: List[KmpOpRecord] = field(default_factory=list)
    failures: List["KmpFailure"] = field(default_factory=list)
    retries: int = 0

    def rtts(self, op: str) -> List[float]:
        return [r.rtt_s for r in self.records if r.op == op]

    def message_count(self, op: str) -> int:
        samples = [r.messages for r in self.records if r.op == op]
        if not samples:
            raise ValueError(f"no completed {op!r} operations")
        return samples[0]

    def byte_count(self, op: str) -> int:
        samples = [r.bytes for r in self.records if r.op == op]
        if not samples:
            raise ValueError(f"no completed {op!r} operations")
        return samples[0]

    def count(self, op: str) -> int:
        return sum(1 for r in self.records if r.op == op)


@dataclass
class KmpFailure:
    """An operation that never completed (lost/tampered messages)."""

    ok: ClassVar[bool] = False

    op: str
    switch: str
    port: Optional[int]
    attempts: int
    gave_up_at: float


@dataclass
class _Exchange:
    op: str
    switch: str
    start: float
    port: Optional[int] = None
    peer: Optional[str] = None
    peer_port: Optional[int] = None
    eak: Optional[EakEndpoint] = None
    adhkd: Optional[AdhkdEndpoint] = None
    on_done: Optional[DoneCallback] = None
    messages: int = 0
    bytes: int = 0
    attempt: int = 1
    completed: bool = False


def _issue_all(ops: List[Callable[[DoneCallback], None]],
               on_resolved: Callable[[], None]) -> None:
    """The one key-operation barrier: issue ``ops`` (each a callable
    taking its ``on_done``) in this order and call ``on_resolved``
    exactly once, when every one has resolved — completed or abandoned,
    so a dead switch cannot hang it."""
    unresolved = len(ops)

    def resolved(_outcome) -> None:
        nonlocal unresolved
        unresolved -= 1
        if not unresolved:
            on_resolved()

    if not ops:
        on_resolved()
    for op in ops:
        op(resolved)


class KeyManagementProtocol:
    """Controller-resident KMP engine (owned by P4AuthController)."""

    def __init__(self, controller):
        self.c = controller
        self.stats = KmpStats()
        #: Give an exchange this long before declaring the attempt lost
        #: (lost/tampered messages otherwise stall key management forever).
        #: Retries back off exponentially (capped) with seeded positive
        #: jitter, so a congested or blacked-out channel is not hammered
        #: on a fixed timer and racing exchanges decorrelate.
        self.retry = RetryPolicy(
            0.02, max_attempts=3, factor=2.0, cap_s=0.25, jitter=0.1,
            seed=0x5EED)
        self._by_seq: Dict[Tuple[str, int], _Exchange] = {}
        self._by_port: Dict[Tuple[str, int], _Exchange] = {}
        self._rollover_interval: Optional[float] = None
        self._automation_enabled = False
        #: Observers ``hook(switch, epoch)`` of completed local-key
        #: updates (the durability layer journals epoch advances here).
        self.on_epoch: List[Callable[[str, int], None]] = []
        self._epochs: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # dataplane instrumentation (called from controller.provision)
    # ------------------------------------------------------------------

    def observe_dataplane(self, dataplane) -> None:
        name = dataplane.switch.name
        dataplane.on_port_key_installed.append(
            lambda port, _slot, now, sw=name: self._port_key_done(sw, port, now)
        )
        dataplane.on_dpdp_exchange_sent.append(
            lambda port, packet, sw=name: self._dpdp_sent(sw, port, packet)
        )

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def local_key_init(self, switch: str,
                       on_done: Optional[DoneCallback] = None) -> None:
        """EAK + ADHKD: establish K_auth then K_local (Fig 14a)."""
        self._start_local_op("local_init", switch, on_done)

    def local_key_update(self, switch: str,
                         on_done: Optional[DoneCallback] = None) -> None:
        """ADHKD under the current K_local: roll to a new K_local (Fig 14b)."""
        self._start_local_op("local_update", switch, on_done)

    def _start_local_op(self, op: str, switch: str,
                        on_done: Optional[DoneCallback],
                        attempt: int = 1) -> None:
        exchange = _Exchange(op, switch, self.c.sim.now,
                             on_done=on_done, attempt=attempt)
        if op == "local_init":
            exchange.eak = EakEndpoint(self.c.keys.seed(switch), self.c.prng)
            salt1 = exchange.eak.start()
            seq = self.c.next_seq(switch)
            message = build_eak_message(KeyExchType.EAK_SALT1, salt1, seq)
            self.c.digest.sign(self.c.keys.seed(switch), message)
            self._by_seq[(switch, seq)] = exchange
            self._send(exchange, switch, message)
        else:
            self._start_local_adhkd(exchange, switch,
                                    self.c.keys.local_key(switch),
                                    self.c.keys.local_key_version(switch))
        self._watch(exchange,
                    lambda: self._start_local_op(op, switch, on_done,
                                                 attempt + 1))

    def port_key_init(self, switch: str, port: int,
                      on_done: Optional[DoneCallback] = None) -> None:
        """Redirected ADHKD between two data planes (Fig 14c)."""
        self._start_port_op("port_init", KeyExchType.PORT_KEY_INIT,
                            switch, port, on_done)

    def port_key_update(self, switch: str, port: int,
                        on_done: Optional[DoneCallback] = None) -> None:
        """Direct DP-DP ADHKD under the current K_port (Fig 14d)."""
        self._start_port_op("port_update", KeyExchType.PORT_KEY_UPDATE,
                            switch, port, on_done)

    def _start_port_op(self, op: str, msg_type: KeyExchType, switch: str,
                       port: int, on_done: Optional[DoneCallback],
                       attempt: int = 1) -> None:
        """Ask ``switch`` to start (or roll) the key on ``port``."""
        exchange = _Exchange(op, switch, self.c.sim.now, port=port,
                             on_done=on_done, attempt=attempt)
        try:
            exchange.peer, exchange.peer_port = self._peer_of(switch, port)
        except KeyError:
            if attempt == 1:
                raise
            # The peer vanished between attempts (link removed, topology
            # change): abandon instead of crashing the event loop.
            self._abandon(exchange)
            return
        self._by_port[(switch, port)] = exchange
        seq = self.c.next_seq(switch)
        message = build_keyctl_message(msg_type, port, seq,
                                       key_ver=self.c.keys.local_key_version(switch))
        self.c.digest.sign(self.c.keys.local_key(switch), message)
        self._send(exchange, switch, message)
        self._watch(exchange,
                    lambda: self._start_port_op(op, msg_type, switch, port,
                                                on_done, attempt + 1))

    # ------------------------------------------------------------------
    # convenience: bootstrap, rollover, topology automation
    # ------------------------------------------------------------------

    def switch_links(self) -> List[Tuple[str, int, str, int]]:
        """All switch-to-switch links as (sw_a, port_a, sw_b, port_b),
        with the initiator end (lexicographically smaller name) first."""
        seen = set()
        result = []
        for name in self.c.network.switch_names():
            for port, (peer, peer_port) in self.c.network.neighbor_ports(name).items():
                key = tuple(sorted([(name, port), (peer, peer_port)]))
                if key in seen:
                    continue
                seen.add(key)
                if name <= peer:
                    result.append((name, port, peer, peer_port))
                else:
                    result.append((peer, peer_port, name, port))
        return result

    def bootstrap_all(self, on_done: Optional[Callable[[], None]] = None) -> None:
        """Initialize local keys for every switch, then every port key.

        ``on_done`` fires when every operation has *resolved* — completed
        or abandoned once :attr:`retry` is exhausted — never hanging
        silently on a dead switch.  Callers inspect
        :attr:`KmpStats.failures` for the outcome.  Port keys are only
        attempted across links whose both endpoints obtained a local key.
        """
        def start_ports() -> None:
            _issue_all(
                [partial(self.port_key_init, sw_a, port_a)
                 for sw_a, port_a, sw_b, _port_b in self.switch_links()
                 if (self.c.keys.has_local_key(sw_a)
                     and self.c.keys.has_local_key(sw_b))],
                on_done or (lambda: None))

        _issue_all([partial(self.local_key_init, switch)
                    for switch in sorted(self.c.dataplanes)], start_ports)

    def rollover_due(self) -> Tuple[List[str], List[Tuple[str, int]]]:
        """What one full rollover updates: every held local key, then
        every held port key from the initiator end — ``(switches,
        [(switch, port), ...])`` in issue order."""
        held = [switch for switch in sorted(self.c.dataplanes)
                if self.c.keys.has_local_key(switch)]
        ports = [(sw_a, port_a)
                 for sw_a, port_a, _sw_b, _port_b in self.switch_links()
                 if sw_a in self.c.dataplanes
                 and self.c.dataplanes[sw_a].keys.has_port_key(port_a)]
        return held, ports

    def rollover(self, on_done: Optional[Callable[[], None]] = None) -> None:
        """Update every held local key, then every held port key, behind
        one :func:`_issue_all` barrier: ``on_done`` fires once every
        update has resolved (completed or abandoned)."""
        held, ports = self.rollover_due()
        _issue_all([partial(self.local_key_update, switch) for switch in held]
                   + [partial(self.port_key_update, switch, port)
                      for switch, port in ports],
                   on_done or (lambda: None))

    def rollover_epoch(self, switch: str) -> int:
        """Completed local-key updates for ``switch`` (monotonic).

        Key versions are mod ``KEY_VERSIONS`` slots, so only this count
        can order two switches' rollover progress.
        """
        return self._epochs.get(switch, 0)

    def restore_epochs(self, epochs: Dict[str, int]) -> None:
        """Warm-restart entry point: resume epoch counters from a
        recovered snapshot (only ever moves counters forward)."""
        for switch, epoch in epochs.items():
            if epoch > self._epochs.get(switch, 0):
                self._epochs[switch] = epoch

    def schedule_rollover(self, interval_s: float) -> None:
        """Periodically update every local and port key (§VIII key-size
        mitigation: roll keys well inside brute-force time)."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self._rollover_interval = interval_s
        self.c.sim.schedule(interval_s, self._rollover_tick)

    def cancel_rollover(self) -> None:
        self._rollover_interval = None

    def _rollover_tick(self) -> None:
        if self._rollover_interval is None or self.c.halted:
            return
        self.rollover()
        self.c.sim.schedule(self._rollover_interval, self._rollover_tick)

    def enable_topology_automation(self) -> None:
        """React to LLDP-style port events: key init on port-up (F3)."""
        if self._automation_enabled:
            return
        self._automation_enabled = True
        self.c.network.on_port_status(self._on_port_status)

    def _on_port_status(self, switch: str, port: int, up: bool) -> None:
        if not up:
            return
        try:
            peer, _peer_port = self._peer_of(switch, port)
        except KeyError:
            return
        # Only the lexicographically smaller endpoint initiates, so a
        # single link-up event doesn't trigger two racing exchanges.
        if switch > peer:
            return
        if (self.c.keys.has_local_key(switch)
                and self.c.keys.has_local_key(peer)):
            self.port_key_init(switch, port)

    # ------------------------------------------------------------------
    # message handling (dispatched from controller.handle_packet_in)
    # ------------------------------------------------------------------

    def handle_message(self, switch: str, packet: Packet) -> None:
        hdr = packet.get(P4AUTH)
        msg_type = hdr["msgType"]
        if msg_type == KeyExchType.EAK_SALT2:
            self._handle_eak_salt2(switch, packet, hdr)
        elif msg_type == KeyExchType.ADHKD_MSG1:
            self._handle_redirected_msg1(switch, packet, hdr)
        elif msg_type == KeyExchType.UPD_MSG2:
            self._handle_local_msg2(switch, packet, hdr)
        elif msg_type == KeyExchType.ADHKD_MSG2:
            if hdr["flags"] == 0:
                self._handle_local_msg2(switch, packet, hdr)
            else:
                self._handle_redirected_msg2(switch, packet, hdr)
        else:
            self.c.stats.unsolicited_responses += 1

    def _handle_eak_salt2(self, switch: str, packet: Packet, hdr) -> None:
        exchange = self._by_seq.pop((switch, hdr["seqNum"]), None)
        if exchange is None or exchange.eak is None:
            self.c.stats.unsolicited_responses += 1
            return
        if not self.c.digest.verify(self.c.keys.seed(switch), packet):
            self.c._record_tamper(switch, hdr["seqNum"],
                                  "EAK salt2 digest mismatch")
            return
        self._count(exchange, packet)
        k_auth = exchange.eak.finish(packet.get(EAK)["salt"])
        self.c.keys.set_auth_key(switch, k_auth)
        # Continue straight into ADHKD, authenticated with K_auth.
        self._start_local_adhkd(exchange, switch, k_auth, key_ver=0)

    def _start_local_adhkd(self, exchange: _Exchange, switch: str,
                           auth_key: int, key_ver: int) -> None:
        exchange.adhkd = AdhkdEndpoint(self.c.prng)
        pk1, salt1 = exchange.adhkd.start()
        seq = self.c.next_seq(switch)
        # Fig 14 distinguishes initKeyExch (K_auth) from updKeyExch
        # (current K_local); the distinct message type also lets a
        # retried initialization re-run cleanly after the DP completed a
        # half-finished attempt.
        msg_type = (KeyExchType.ADHKD_MSG1 if exchange.op == "local_init"
                    else KeyExchType.UPD_MSG1)
        message = build_adhkd_message(msg_type, pk1, salt1, seq,
                                      key_ver=key_ver)
        self.c.digest.sign(auth_key, message)
        self._by_seq[(switch, seq)] = exchange
        self._send(exchange, switch, message)

    def _handle_local_msg2(self, switch: str, packet: Packet, hdr) -> None:
        exchange = self._by_seq.pop((switch, hdr["seqNum"]), None)
        if exchange is None or exchange.adhkd is None:
            self.c.stats.unsolicited_responses += 1
            return
        if exchange.op == "local_init":
            key = self.c.keys.auth_key(switch)
        else:
            key = self.c.keys.local_key(switch, hdr["keyVer"])
        if not self.c.digest.verify(key, packet):
            self.c._record_tamper(switch, hdr["seqNum"],
                                  "local-key ADHKD msg2 digest mismatch")
            return
        self._count(exchange, packet)
        payload = packet.get(ADHKD)
        master = exchange.adhkd.finish(payload["pk"], payload["salt"])
        if exchange.op == "local_init":
            # Initialization always (re)occupies version 0 (see the DP
            # side) so retried bootstraps cannot drift version counters.
            self.c.keys.install_local_key_at(switch, master, 0)
        else:
            self.c.keys.install_local_key_at(switch, master,
                                             hdr["keyVer"] + 1)
        self._complete(exchange)

    def _handle_redirected_msg1(self, switch: str, packet: Packet, hdr) -> None:
        """MSG1 from the initiating DP of a port-key init; relay to peer."""
        self._relay(self._by_port.get((switch, hdr["flags"])), switch,
                    packet, hdr, to_peer=True)

    def _handle_redirected_msg2(self, switch: str, packet: Packet, hdr) -> None:
        """MSG2 from the responding DP; relay back to the initiator DP.
        Completion is observed via the initiator DP's install hook."""
        self._relay(self._by_seq.pop((switch, hdr["seqNum"]), None), switch,
                    packet, hdr, to_peer=False)

    def _relay(self, exchange: Optional[_Exchange], switch: str,
               packet: Packet, hdr, to_peer: bool) -> None:
        """Verify one redirected port-key leg under the sender's local key
        and forward it under the target's, ``flags`` naming the target's
        port: MSG1 to the peer (whose MSG2 is then expected by seq), MSG2
        back to the initiator."""
        if exchange is None or exchange.op != "port_init":
            self.c.stats.unsolicited_responses += 1
            return
        if not self.c.digest.verify(
                self.c.keys.local_key(switch, hdr["keyVer"]), packet):
            self.c._record_tamper(
                switch, hdr["seqNum"],
                f"redirected ADHKD msg{1 if to_peer else 2} digest mismatch")
            return
        self._count(exchange, packet)
        payload = packet.get(ADHKD)
        target, port = ((exchange.peer, exchange.peer_port) if to_peer
                        else (exchange.switch, exchange.port))
        seq = self.c.next_seq(target)
        relay = build_adhkd_message(
            KeyExchType(hdr["msgType"]), payload["pk"], payload["salt"], seq,
            key_ver=self.c.keys.local_key_version(target),
        )
        relay.get(P4AUTH)["flags"] = port
        self.c.digest.sign(self.c.keys.local_key(target), relay)
        if to_peer:
            self._by_seq[(target, seq)] = exchange
        # Relay cost: one verify + one sign at the controller.
        self._send(exchange, target, relay,
                   delay=2 * self.c.costs.controller_digest_s)

    # ------------------------------------------------------------------
    # completion & accounting
    # ------------------------------------------------------------------

    def _port_key_done(self, switch: str, port: int, now: float) -> None:
        exchange = self._by_port.pop((switch, port), None)
        if exchange is None:
            return
        self._complete(exchange, at=now)

    def _dpdp_sent(self, switch: str, port: int, packet: Packet) -> None:
        exchange = self._by_port.get((switch, port))
        if exchange is None:
            # The peer end of a pending exchange also emits messages.
            try:
                peer, peer_port = self._peer_of(switch, port)
            except KeyError:
                return
            exchange = self._by_port.get((peer, peer_port))
        if exchange is not None:
            self._count(exchange, packet)

    def _watch(self, exchange: _Exchange, restart) -> None:
        """Re-run the operation if it hasn't completed within the timeout."""
        self.c.sim.schedule(self.retry.delay(exchange.attempt),
                            self._check_exchange, exchange, restart)

    def _check_exchange(self, exchange: _Exchange, restart) -> None:
        if exchange.completed or self.c.halted:
            return
        self._purge(exchange)
        telemetry = self.c.telemetry
        if self.retry.exhausted(exchange.attempt):
            self._abandon(exchange)
            return
        self.stats.retries += 1
        if telemetry.enabled:
            telemetry.metrics.counter("kmp_retries_total",
                                      op=exchange.op).inc()
        restart()

    def _abandon(self, exchange: _Exchange) -> None:
        """Terminal failure: record, count, and tell the operation's
        ``on_done``."""
        failure = KmpFailure(exchange.op, exchange.switch, exchange.port,
                             exchange.attempt, self.c.sim.now)
        self.stats.failures.append(failure)
        telemetry = self.c.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("kmp_exchange_abandoned_total",
                                      op=exchange.op).inc()
            telemetry.tracer.emit("kmp.exchange_abandoned", op=exchange.op,
                                  switch=exchange.switch,
                                  port=exchange.port,
                                  attempts=exchange.attempt)
        if exchange.on_done is not None:
            exchange.on_done(failure)

    def _purge(self, exchange: _Exchange) -> None:
        """Drop all routing-table references to a stale exchange."""
        for table in (self._by_seq, self._by_port):
            stale = [key for key, value in table.items()
                     if value is exchange]
            for key in stale:
                del table[key]

    def _complete(self, exchange: _Exchange, at: Optional[float] = None) -> None:
        exchange.completed = True
        record = KmpOpRecord(
            op=exchange.op,
            switch=exchange.switch,
            port=exchange.port,
            rtt_s=(at if at is not None else self.c.sim.now) - exchange.start,
            messages=exchange.messages,
            bytes=exchange.bytes,
        )
        self.stats.records.append(record)
        telemetry = self.c.telemetry
        if telemetry.enabled:
            telemetry.metrics.histogram(
                "kmp_rtt_seconds", buckets=KMP_RTT_BUCKETS,
                op=record.op).observe(record.rtt_s)
            telemetry.metrics.counter("kmp_exchanges_total",
                                      op=record.op).inc()
            telemetry.tracer.emit("kmp.exchange", op=record.op,
                                  switch=record.switch, port=record.port,
                                  rtt_s=record.rtt_s,
                                  messages=record.messages,
                                  bytes=record.bytes)
        if record.op == "local_update":
            epoch = self._epochs.get(record.switch, 0) + 1
            self._epochs[record.switch] = epoch
            for hook in list(self.on_epoch):
                hook(record.switch, epoch)
        if exchange.on_done is not None:
            exchange.on_done(record)

    def _send(self, exchange: _Exchange, switch: str, packet: Packet,
              delay: Optional[float] = None) -> None:
        if self.c.halted:
            return  # a dead controller's timers send nothing
        self._count(exchange, packet)
        self.c.sim.schedule(
            delay if delay is not None else self.c.costs.controller_digest_s,
            self.c.network.send_packet_out, switch, packet,
        )

    def _count(self, exchange: _Exchange, packet: Packet) -> None:
        exchange.messages += 1
        exchange.bytes += packet.size_bytes

    def _peer_of(self, switch: str, port: int) -> Tuple[str, int]:
        neighbors = self.c.network.neighbor_ports(switch)
        if port not in neighbors:
            raise KeyError(f"({switch!r}, port {port}) has no switch neighbor")
        return neighbors[port]


class RegionalKeyAuthority:
    """A region controller's two honest-load readings, under one name.

    Only ``bench/counts.py`` builds one: the constructor and the two
    readings it calls are all that is left.  ``fleet_scale`` times its
    key rounds itself, and a caller holding the controller reads it
    directly.
    """

    def __init__(self, region_id: str, controller):
        self.region_id = region_id
        self.c = controller

    def seq_divergence(self) -> Dict[str, int]:
        return self.c.seq_divergence()

    def tamper_indicators(self) -> Dict[str, int]:
        return self.c.tamper_indicators()


def sum_indicators(readings: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Several ``tamper_indicators()`` readings as one, key by key."""
    totals: Dict[str, int] = {}
    for reading in readings:
        for key, value in reading.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def honest_load_audit(divergence: Dict[str, int], indicators: Dict[str, int],
                      must_agree: Optional[Iterable[str]] = None,
                      before: Optional[Dict[str, int]] = None,
                      ) -> List[Tuple[str, bool, str]]:
    """The paper's §VIII claim as three ``(name, ok, detail)`` checks over
    ``seq_divergence()`` / ``tamper_indicators()`` readings: no forged write
    (no ``expected_seq`` ahead of its controller), sequence agreement (0 on
    ``must_agree``, default everywhere; KMP messages consume controller
    seqs, so a caller names the switches a register op has realigned) and
    defenses quiet (no indicator moved since ``before``, default zero)."""
    before = before or {}
    ahead = {sw: d for sw, d in divergence.items() if d < 0}
    agree = divergence if must_agree is None else must_agree
    apart = {sw: divergence[sw] for sw in agree if divergence[sw]}
    moved = {key: value - before.get(key, 0)
             for key, value in indicators.items()
             if value != before.get(key, 0)}
    return [
        ("no_forged_write", not ahead,
         f"data plane ahead of its controller on {ahead}"),
        ("seq_agreement", not apart,
         f"controller and data plane disagree on {apart}"),
        ("defenses_quiet", not moved,
         f"tamper indicators that moved under honest load: {moved}"),
    ]
