"""DP-Reg-RW: unauthenticated register access over PacketOut/PacketIn.

The paper's middle variant — register read/write requests are crafted as
PacketOut messages and processed in the data plane (like P4Auth), but
carry no digest.  It is both the fair performance baseline for Figs 18/19
and the attack surface for the C-DP adversary demos: a control-channel
tap can rewrite these messages and nobody notices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constants import REG_OP, REG_OP_HEADER, RegOpType
from repro.core.regops import RegOpTable
from repro.core.requests import (
    PendingRequest,
    RequestLifecycle,
    ResponseCallback,
    RetryPolicy,
)
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network

#: Unauthenticated control header: message type + sequence number only.
CTL_HEADER = HeaderType("ctl", [
    ("msgType", 8),
    ("seqNum", 32),
])

def build_plain_request(msg_type: RegOpType, reg_id: int, index: int,
                        value: int, seq_num: int) -> Packet:
    packet = Packet()
    packet.push("ctl", CTL_HEADER.instantiate(msgType=int(msg_type),
                                              seqNum=seq_num))
    packet.push(REG_OP, REG_OP_HEADER.instantiate(regId=reg_id, index=index,
                                                  value=value))
    return packet


class PlainRegOpDataplane:
    """Data-plane handler for unauthenticated register operations."""

    def __init__(self, switch: DataplaneSwitch):
        self.switch = switch
        self.regops = RegOpTable(switch, "plain_reg_id_to_name",
                                 max_entries=4096)
        self.regops_served = 0

    def install(self) -> "PlainRegOpDataplane":
        self.switch.pipeline.insert_stage(0, "plain_regop", self._stage)
        return self

    def map_register(self, name: str) -> int:
        return self.regops.map_register(name)

    def map_all_registers(self) -> Dict[str, int]:
        return self.regops.map_all_registers()

    def _stage(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        if (ctx.ingress_port != DataplaneSwitch.CPU_PORT
                or not packet.has("ctl") or not packet.has(REG_OP)):
            return
        ctl = packet.get("ctl")
        payload = packet.get(REG_OP)
        result = self.regops.apply(payload["regId"], ctl["msgType"],
                                   payload["index"], payload["value"])
        if result is None:
            msg_type, result = RegOpType.NACK, 0
        else:
            msg_type = RegOpType.ACK
            self.regops_served += 1
        response = build_plain_request(
            msg_type, payload["regId"], payload["index"], result,
            ctl["seqNum"],
        )
        ctx.to_controller(response, reason="plain reg-op response")
        ctx.stop()


class _RegisterStack:
    """What the two unauthenticated stacks share: the request lifecycle
    and the register API :class:`repro.core.P4AuthController` also
    speaks.  A subclass names its ``STACK``, resolves names in
    ``register_id`` and composes in ``_issue``."""

    #: Label on the shared ``runtime_*`` metrics.
    STACK = ""

    def __init__(self, network: Network,
                 request_timeout_s: Optional[float] = None):
        self.network = network
        self.sim = network.sim
        self.costs = network.costs
        self.request_retries = 0
        self.requests_abandoned = 0
        #: Opt-in bounded retries (same contract as P4AuthController):
        #: ``None`` keeps legacy fire-and-wait, otherwise unanswered
        #: requests are re-issued after this delay up to the policy's
        #: ``max_attempts`` times, then abandoned with
        #: ``callback(False, 0)``.
        self.requests = RequestLifecycle(
            network, self.STACK, RetryPolicy(request_timeout_s),
            self._issue, self)

    def outstanding_count(self) -> int:
        """Requests issued whose outcome (completion, loss, abandonment)
        has not yet been decided — uniform across stacks, so batching
        facades can gauge true in-flight load."""
        return self.requests.outstanding_count()

    def read_register(self, switch: str, reg_name: str, index: int,
                      callback: Optional[ResponseCallback] = None) -> int:
        return self._issue("read", switch, reg_name, index, 0, callback)

    def write_register(self, switch: str, reg_name: str, index: int,
                       value: int,
                       callback: Optional[ResponseCallback] = None) -> int:
        return self._issue("write", switch, reg_name, index, value, callback)

    def request_many(self, switch: str, ops: Sequence[Tuple]) -> List[int]:
        """Issue a burst of ``(kind, reg_name, index, value, callback)``
        ops back to back; returns their seq numbers.

        A refused burst dispatched nothing: every op's register is
        resolved (``KeyError`` for one the switch lacks) before the
        first op is issued, as ``P4AuthController.request_many``
        composes every request before it dispatches any.
        """
        for _kind, reg_name, *_rest in ops:
            self.register_id(switch, reg_name)
        return self.requests.issue_each(switch, ops)


class PlainController(_RegisterStack):
    """Controller for the DP-Reg-RW stack (no authentication).

    API-compatible with :class:`repro.core.P4AuthController` for register
    operations, so in-network system controllers (e.g., RouteScout's) can
    run over either stack.
    """

    STACK = "DP-Reg-RW"

    def __init__(self, network: Network,
                 request_timeout_s: Optional[float] = None):
        super().__init__(network, request_timeout_s)
        self._seq = self.requests.seq
        self._reg_ids: Dict[str, Dict[str, int]] = {}
        self.acks = 0
        self.nacks = 0
        network.attach_controller(self)

    def provision(self, switch: DataplaneSwitch) -> None:
        self._reg_ids[switch.name] = {
            reg_name: reg_id
            for reg_id, reg_name in switch.registers.id_map().items()
        }
        self._seq.setdefault(switch.name, 1)

    def register_id(self, switch: str, reg_name: str) -> int:
        return self._reg_ids[switch][reg_name]

    def _issue(self, kind: str, switch: str, reg_name: str, index: int,
               value: int, callback: Optional[ResponseCallback],
               attempt: int = 1) -> int:
        seq = self.requests.next_seq(switch)
        if kind == "read":
            msg_type, compose_s = RegOpType.READ_REQ, self.costs.compose_read_s
        else:
            msg_type, compose_s = (RegOpType.WRITE_REQ,
                                   self.costs.compose_write_s)
        request = build_plain_request(
            msg_type, self.register_id(switch, reg_name), index, value, seq
        )
        self.requests.dispatch(
            seq, PendingRequest(kind, switch, reg_name, index, value,
                                callback, attempt),
            self.sim.now + compose_s,
            self.network.send_packet_out, switch, request)
        return seq

    def handle_packet_in(self, switch: str, packet: Packet) -> None:
        if not packet.has("ctl"):
            return
        ctl = packet.get("ctl")
        pending = self.requests.complete(switch, ctl["seqNum"])
        if pending is None:
            return
        ok = ctl["msgType"] == RegOpType.ACK
        value = packet.get(REG_OP)["value"] if packet.has(REG_OP) else 0
        if ok:
            self.acks += 1
        else:
            self.nacks += 1
        if pending.callback is not None:
            pending.callback(ok, value)
