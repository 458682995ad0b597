"""Digest computation and verification (the paper's Eqn. 4).

One :class:`DigestEngine` instance lives in each data plane (wrapping the
switch's hash extern, so invocations are charged to hash units and to the
timing model) and one at the controller (wrapping a plain software hash).
Both compute:

    digest = HMAC_K(p4Auth_h || p4Auth_payload)

The controller-side software engine has two lanes:

- the **scalar lane** — one message at a time, as the paper describes;
- the **vector lane** (:mod:`repro.crypto.vectorized`) — a HalfSipHash
  batch per call, selected by :meth:`compute_many` when a batch is at
  least :attr:`~DigestEngine.VECTOR_THRESHOLD` messages.

The batch size alone picks the lane.  Lane selection is a host-CPU
scheduling decision only: tags are bit-identical across lanes (pinned by
the differential battery), so which lane signed a message can never
change observable wire behavior.  Extern (data-plane) digests always run
per-packet so hash-unit invocation accounting is untouched.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.constants import P4AUTH
from repro.core.messages import digest_material
from repro.crypto import vectorized
from repro.crypto.halfsiphash import HalfSipHash
from repro.dataplane.externs import HashExtern
from repro.dataplane.packet import Packet


class DigestEngine:
    """Signs and verifies P4Auth messages with a keyed 32-bit HalfSipHash.

    Parameters
    ----------
    extern:
        A switch's :class:`HashExtern`.  When given, digests run through
        it (counting invocations for the resource/timing models).  When
        None, a software engine is used (the controller side).
    """

    #: The vector-lane crossover, measured on 64-byte C-DP material:
    #: two messages in one int are 1.7x two scalar digests, and a group
    #: of one is the scalar kernel with packing on top.
    VECTOR_THRESHOLD = 2

    def __init__(self, extern: Optional[HashExtern] = None):
        self._extern = extern
        self._halfsiphash: Optional[HalfSipHash] = None
        if extern is None:
            self._halfsiphash = HalfSipHash()
            self._software = self._halfsiphash.digest
        else:
            self._software = extern.compute_digest_bytes
        self.computed = 0
        self.verified_ok = 0
        self.verified_fail = 0
        #: Lane-selection telemetry: batches and messages per lane.
        self.vector_batches = 0
        self.scalar_batches = 0
        self.vector_messages = 0
        self.scalar_messages = 0

    # ------------------------------------------------------------------
    # lane selection
    # ------------------------------------------------------------------

    def lane_for(self, batch_size: int) -> str:
        """Which lane a ``batch_size``-message batch would take."""
        if self._extern is not None:
            return "extern"
        if batch_size < self.VECTOR_THRESHOLD:
            return "scalar"
        return "vector"

    @property
    def key_state_hits(self) -> int:
        """Midstate cache hits of the software HalfSipHash (both lanes)."""
        return self._halfsiphash.hits if self._halfsiphash else 0

    @property
    def key_state_misses(self) -> int:
        return self._halfsiphash.misses if self._halfsiphash else 0

    # ------------------------------------------------------------------
    # single-message path (unchanged semantics)
    # ------------------------------------------------------------------

    def compute(self, key: int, packet: Packet) -> int:
        """The digest value for ``packet`` under ``key`` (does not sign)."""
        self.computed += 1
        return self._software(key, digest_material(packet))

    def sign(self, key: int, packet: Packet) -> Packet:
        """Fill the packet's digest field in place and return it."""
        packet.get(P4AUTH)["digest"] = self.compute(key, packet)
        return packet

    def verify(self, key: int, packet: Packet) -> bool:
        """True iff the packet's digest field matches the recomputation."""
        claimed = packet.get(P4AUTH)["digest"]
        actual = self.compute(key, packet)
        if claimed == actual:
            self.verified_ok += 1
            return True
        self.verified_fail += 1
        return False

    # ------------------------------------------------------------------
    # batch path (vector lane above the threshold)
    # ------------------------------------------------------------------

    def compute_many(self, key: int, packets: Sequence[Packet]) -> List[int]:
        """Digest values for a batch of packets under one ``key``.

        Bit-identical to ``[self.compute(key, p) for p in packets]`` —
        the lane only changes how many Python-interpreter round trips
        the batch costs."""
        count = len(packets)
        if count == 0:
            return []
        self.computed += count
        materials = [digest_material(p) for p in packets]
        lane = self.lane_for(count)
        if lane == "vector":
            self.vector_batches += 1
            self.vector_messages += count
            return vectorized.digest_many(key, materials, self._halfsiphash)
        if lane == "scalar":
            self.scalar_batches += 1
            self.scalar_messages += count
        software = self._software
        return [software(key, m) for m in materials]

    def sign_many(self, key: int, packets: Sequence[Packet]) -> Sequence[Packet]:
        """Fill every packet's digest field in place; returns the batch."""
        digests = self.compute_many(key, packets)
        for packet, digest in zip(packets, digests):
            packet.get(P4AUTH)["digest"] = digest
        return packets

    def verify_many(self, key: int, packets: Sequence[Packet]) -> List[bool]:
        """Per-packet verification verdicts for a batch under one key."""
        actuals = self.compute_many(key, packets)
        verdicts: List[bool] = []
        for packet, actual in zip(packets, actuals):
            ok = packet.get(P4AUTH)["digest"] == actual
            if ok:
                self.verified_ok += 1
            else:
                self.verified_fail += 1
            verdicts.append(ok)
        return verdicts
