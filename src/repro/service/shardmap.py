"""Consistent-hash switch ownership with bounded loads.

The service shards its switch fleet across N controller workers.  Two
properties matter operationally:

- **Stability** — re-sharding (adding/removing a worker) must move as
  few switches as possible, because a moved switch's controller-side
  sequence counter and key state move with it (the region-sharded
  fleets and the durable restart build on this map).
- **Balance** — a shard's throughput is capped by its issue window (its
  share of the §IV outstanding-request DoS budget), so fleet throughput
  is set by the *most loaded* shard.  Plain consistent hashing leaves a
  statistical imbalance; the assignment therefore applies the
  bounded-load refinement: no shard may own more than ``load_factor``
  times its fair share, overflow walks to the next shard on the ring.

Hashing is ``sha256`` over the token string — stable across processes
and Python versions (``hash()`` is salted per process), and explicitly
*not* key material: ownership is public routing metadata, so nothing
here touches the P4Auth crypto path.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from math import ceil
from typing import Dict, List, Sequence

#: Virtual nodes per shard on the ring.  More points = smoother raw
#: distribution before the bounded-load pass.
REPLICAS = 160

#: Default bounded-load factor: no shard owns more than 1.15x its fair
#: share of the fleet.
DEFAULT_LOAD_FACTOR = 1.15


def _hash_token(token: str) -> int:
    """64-bit ring position for a token (stable across processes)."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class ShardMap:
    """Consistent-hash ring mapping switch names to shard ids."""

    def __init__(self, shard_ids: Sequence[str]):
        if not shard_ids:
            raise ValueError("need at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids in {list(shard_ids)}")
        self.shard_ids = tuple(shard_ids)
        ring = sorted(
            (_hash_token(f"{shard}#{replica}"), shard)
            for shard in shard_ids
            for replica in range(REPLICAS)
        )
        self._points: List[int] = [point for point, _ in ring]
        self._ring_owners: List[str] = [owner for _, owner in ring]

    # ------------------------------------------------------------------
    # raw ring lookup
    # ------------------------------------------------------------------

    def ring_owner(self, switch: str) -> str:
        """The unbounded consistent-hash owner (ignores load caps)."""
        position = bisect_right(self._points, _hash_token(switch))
        return self._ring_owners[position % len(self._ring_owners)]

    # ------------------------------------------------------------------
    # bounded-load assignment
    # ------------------------------------------------------------------

    def capacity(self, num_switches: int,
                 load_factor: float = DEFAULT_LOAD_FACTOR) -> int:
        """Per-shard ownership cap for a fleet of ``num_switches``."""
        if load_factor < 1.0:
            raise ValueError("load_factor must be >= 1.0")
        fair = num_switches / len(self.shard_ids)
        return max(1, ceil(fair * load_factor))

    def assign(self, switches: Sequence[str],
               load_factor: float = DEFAULT_LOAD_FACTOR
               ) -> Dict[str, List[str]]:
        """Deterministic bounded-load assignment of the whole fleet.

        Switches are placed in sorted-name order (a pure function of the
        inputs): each lands on its ring owner unless that shard is at
        capacity, in which case it walks clockwise to the next shard
        with room.  Every shard id appears in the result, possibly with
        an empty list.
        """
        if len(set(switches)) != len(switches):
            raise ValueError("duplicate switch names")
        cap = self.capacity(len(switches), load_factor)
        owned: Dict[str, List[str]] = {shard: [] for shard in self.shard_ids}
        size = len(self._points)
        for switch in sorted(switches):
            position = bisect_right(self._points, _hash_token(switch))
            for step in range(size):
                owner = self._ring_owners[(position + step) % size]
                if len(owned[owner]) < cap:
                    owned[owner].append(switch)
                    break
            else:  # pragma: no cover - cap * shards >= fleet by math
                raise RuntimeError("no shard with spare capacity")
        return owned

    def __repr__(self) -> str:
        return f"ShardMap(shards={len(self.shard_ids)})"


__all__ = ["DEFAULT_LOAD_FACTOR", "REPLICAS", "ShardMap"]
