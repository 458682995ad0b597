"""The P4Runtime register-access stack (cost model).

The paper's first variant performs register reads/writes through the
P4Runtime API: gRPC request to the P4Runtime server in the switch control
plane, then SDK/driver calls into the ASIC.  No PacketOut is involved and
the packet pipeline is bypassed, so we model this stack as a timed
sequence of cost-model charges around a direct register access — the
shape that matters for Figs 18/19 is its extra per-request stack overhead
and the read/write compose asymmetry (paper: read throughput is 1.7x
write throughput because writes compose both the index and the data).

Security-wise this path runs *through the untrusted switch OS*: the
control-channel taps apply, which is exactly why the paper's threat model
defeats TLS-protected P4Runtime (§I) — the tamper happens below the gRPC
endpoint.  We model that by routing the request's parameters through the
same tap chain as PacketOut messages.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import REG_OP, RegOpType
from repro.core.regops import apply_reg_op
from repro.core.requests import PendingRequest, ResponseCallback
from repro.dataplane.switch import DataplaneSwitch
from repro.runtime.plain import _RegisterStack, build_plain_request


class P4RuntimeStack(_RegisterStack):
    """Register access via the (modeled) P4Runtime API.

    With retries off, an OS-level drop makes the request time out
    *silently*.  Requests to one switch ride one ordered gRPC stream, so
    the lifecycle's per-switch FIFO horizon is on *arrival* here: a
    cheap-to-compose read issued after a write must not reach the server
    first.
    """

    STACK = "P4Runtime"

    def provision(self, switch: DataplaneSwitch) -> None:
        self.requests.seq.setdefault(switch.name, 1)

    def register_id(self, switch: str, reg_name: str) -> int:
        return self.network.switch(switch).registers.id_of(reg_name)

    def _issue(self, kind: str, switch: str, reg_name: str, index: int,
               value: int, callback: Optional[ResponseCallback],
               attempt: int = 1) -> int:
        seq = self.requests.next_seq(switch)
        compose_s = (self.costs.compose_read_s if kind == "read"
                     else self.costs.compose_write_s)
        # Compose + gRPC/P4Runtime server overhead, then one C-DP transit.
        request_delay = (compose_s + self.costs.p4runtime_overhead_s
                         + self.network.jittered(self.costs.cdp_one_way_s))
        request = PendingRequest(kind, switch, reg_name, index, value,
                                 callback, attempt)
        # Loss happens inside ``_apply``, where it is seen directly: no
        # response timer, ``lost`` hands the request back instead.
        self.requests.dispatch(seq, request, self.sim.now + request_delay,
                               self._apply, seq, request, timed=False)
        return seq

    def _apply(self, seq: int, request: PendingRequest) -> None:
        # The request parameters traverse the switch OS (SDK/driver), so
        # the compromised-OS tap chain gets its chance to mangle them.
        kind, switch = request.kind, request.switch
        msg_type = RegOpType.READ_REQ if kind == "read" else RegOpType.WRITE_REQ
        device = self.network.switch(switch)
        surrogate = build_plain_request(
            msg_type, self.register_id(switch, request.reg_name),
            request.index, request.value, seq)
        channel = self.network.control_channels[switch]
        survivor = channel.transit(surrogate, "c->dp")
        if survivor is None:
            self.requests.lost(switch, seq)
            return
        payload = survivor.get(REG_OP)
        try:
            register = device.registers.get(device.registers.name_of(
                payload["regId"]))
        except KeyError:
            # A tap rewrote the id to one the device lacks: NACK, like
            # an index or value that does not fit.
            result = None
        else:
            result = apply_reg_op(register, kind == "write",
                                  payload["index"], payload["value"])
        # Driver apply cost + response transit back through the OS.
        response = build_plain_request(
            RegOpType.NACK if result is None else RegOpType.ACK,
            payload["regId"], payload["index"], result or 0, seq,
        )
        survivor_up = channel.transit(response, "dp->c")
        if survivor_up is None:
            self.requests.lost(switch, seq)
            return
        response_delay = (self.costs.switch_fwd_s
                          + self.network.jittered(self.costs.cdp_one_way_s)
                          + self.costs.controller_proc_s)
        self.sim.schedule(response_delay, self._complete, switch, seq,
                          survivor_up)

    def _complete(self, switch: str, seq: int, response) -> None:
        request = self.requests.complete(switch, seq)
        ok = response.get("ctl")["msgType"] == RegOpType.ACK
        value = response.get(REG_OP)["value"]
        if request.callback is not None:
            request.callback(ok, value)
