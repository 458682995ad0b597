"""NetCache mini-model: in-network key-value caching (Table I).

NetCache [8] serves hot keys from switch registers; query statistics for
uncached keys accumulate in a count-min sketch that the controller
periodically reads and clears, updating the hot-key set (C-DP writes).
Table I's attack alters those hot-key update messages so the cache ends
up holding garbage keys and every query goes to the storage server —
"inflates time to retrieve the hot key value".

Metric: mean retrieval latency over a Zipf-like query workload
(cache hit = 5 us, miss = 100 us server round trip).
"""

from __future__ import annotations

from typing import List

from repro.attacks.control_plane import RegisterRequestTamperer
from repro.crypto.prng import XorShiftPrng
from repro.dataplane.headers import HeaderType
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.sketches import CountMinSketch
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.systems.tableone import TableIScenarioResult, build_deployment, check_mode

NC_QUERY_HEADER = HeaderType("nc_query", [
    ("key", 32),
])

HIT_LATENCY_S = 5e-6
MISS_LATENCY_S = 100e-6
CACHE_SLOTS = 4
KEY_SPACE = 32


class NetCacheDataplane:
    """Hot-key cache slots + query-statistics sketch."""

    def __init__(self, switch: DataplaneSwitch):
        self.switch = switch
        registers = switch.registers
        self.cache_keys = registers.define("nc_cache_keys", 32, CACHE_SLOTS)
        self.cache_vals = registers.define("nc_cache_vals", 64, CACHE_SLOTS)
        self.stats_sketch = CountMinSketch(registers, "nc_sketch",
                                           width=256, depth=2)
        self.hits = 0
        self.misses = 0
        self.latency_total_s = 0.0

    def install(self) -> "NetCacheDataplane":
        self.switch.pipeline.add_stage("netcache", self._stage)
        return self

    def _stage(self, ctx: PipelineContext) -> None:
        if not ctx.packet.has("nc_query"):
            return
        key = ctx.packet.get("nc_query")["key"]
        cached = any(self.cache_keys.read(slot) == key
                     for slot in range(CACHE_SLOTS))
        if cached:
            self.hits += 1
            self.latency_total_s += HIT_LATENCY_S
        else:
            self.misses += 1
            self.latency_total_s += MISS_LATENCY_S
            self.stats_sketch.update(key)
        ctx.emit(2)

    @property
    def mean_latency_s(self) -> float:
        total = self.hits + self.misses
        return self.latency_total_s / total if total else 0.0


#: Exponent of the query popularity law :func:`zipf_key` draws from.
ZIPF_SKEW = 1.2


def zipf_key(prng: XorShiftPrng) -> int:
    """Draw a key from a Zipf-like distribution (small ids are hot)."""
    u = max(prng.uniform(), 1e-9)
    rank = int(u ** (-1.0 / ZIPF_SKEW))
    return min(KEY_SPACE - 1, max(0, rank - 1))


#: The query workload (one query per QUERY_PERIOD_S) and the number of
#: controller epochs it is split into.
QUERIES = 4000
QUERY_PERIOD_S = 0.001
EPOCHS = 4


def run_scenario(mode: str, *, telemetry=None) -> TableIScenarioResult:
    """Table I row "In-network cache / NetCache"."""
    check_mode(mode)
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    netcache = NetCacheDataplane(switch).install()
    client, dataplane = build_deployment(mode, switch, net, sim)
    base = sim.now
    node = net.nodes["s1"]

    # The adversary arrives after the first epoch has populated the
    # cache: the attack then poisons every later hot-key refresh.  With
    # P4Auth the poisoned writes are rejected and the cache retains the
    # last good hot set.
    epoch_s = QUERIES * QUERY_PERIOD_S / EPOCHS
    if mode in ("attack", "p4auth"):
        adversary = RegisterRequestTamperer(
            reg_id=switch.registers.id_of("nc_cache_keys"),
            transform=lambda _value: 0xDEAD0000,  # a key nobody queries
        )
        sim.schedule(1.5 * epoch_s, adversary.attach,
                     net.control_channels["s1"])

    # Query workload.
    prng = XorShiftPrng(11)
    from repro.dataplane.packet import Packet
    for index in range(QUERIES):
        packet = Packet()
        packet.push("nc_query", NC_QUERY_HEADER.instantiate(
            key=zipf_key(prng)))
        sim.schedule_at(base + index * QUERY_PERIOD_S, node.receive,
                        packet, 1)

    # Controller epochs: read sketch estimates for every key, install the
    # top-K as the hot set, clear the sketch.
    def run_epoch() -> None:
        estimates = {}
        outstanding = {"count": 0}

        def reader(key: int, row: int):
            def callback(ok: bool, value: int) -> None:
                outstanding["count"] -= 1
                if ok:
                    estimates[key] = min(estimates.get(key, 1 << 62), value)
                if outstanding["count"] == 0:
                    finish()
            return callback

        def finish() -> None:
            hot = sorted(estimates, key=estimates.get,
                         reverse=True)[:CACHE_SLOTS]
            for slot, key in enumerate(hot):
                client.write_register("s1", "nc_cache_keys", slot, key)
                client.write_register("s1", "nc_cache_vals", slot,
                                      0x1000 + key)
            netcache.stats_sketch.clear()

        from repro.dataplane.sketches import _hash
        for key in range(KEY_SPACE):
            for row in range(netcache.stats_sketch.depth):
                position = _hash(key, 0x100 + row) % netcache.stats_sketch.width
                outstanding["count"] += 1
                client.read_register("s1", f"nc_sketch_row{row}", position,
                                     reader(key, row))

    for epoch in range(1, EPOCHS):
        sim.schedule(epoch * epoch_s, run_epoch)
    sim.run(until=base + QUERIES * QUERY_PERIOD_S + 1.0)

    hit_rate = netcache.hits / max(1, netcache.hits + netcache.misses)
    cache_now = [netcache.cache_keys.read(s) for s in range(CACHE_SLOTS)]
    poisoned = any(key == 0xDEAD0000 for key in cache_now)
    detected = False
    if mode == "p4auth":
        detected = client.stats.nacks_received > 0 or len(client.alerts) > 0
    return TableIScenarioResult(
        system="netcache",
        mode=mode,
        impact_metric="mean_retrieval_latency_us",
        impact_value=netcache.mean_latency_s * 1e6,
        state_poisoned=poisoned,
        detected=detected,
        notes=f"hit_rate={hit_rate:.2f}",
    )


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the NetCache stage (cache probe + sketch update)."""
    from repro.verify.ir import (
        Const, EmitPacket, FieldRef, HashDecl, HashDigest, MetaRef,
        Program, RegRead, RegReadModifyWrite, RequireValid, StageDecl,
    )

    switch = DataplaneSwitch("netcache-verify", num_ports=4)
    NetCacheDataplane(switch).install()
    return Program.from_switch("netcache", switch, [StageDecl("netcache", (
        RequireValid("nc_query"),
        RegRead("nc_cache_keys", Const(0), "cached_key"),
        RegRead("nc_cache_vals", Const(0), "cached_val"),
        HashDigest("row0_idx", (FieldRef("nc_query", "key"),),
                   keyed=False, extern="cms_row0"),
        RegReadModifyWrite("nc_sketch_row0", MetaRef("row0_idx"),
                           Const(1), "row0_count"),
        HashDigest("row1_idx", (FieldRef("nc_query", "key"),),
                   keyed=False, extern="cms_row1"),
        RegReadModifyWrite("nc_sketch_row1", MetaRef("row1_idx"),
                           Const(1), "row1_count"),
        EmitPacket(headers=("nc_query",)),
    ))], headers=[NC_QUERY_HEADER], hashes=[HashDecl("nc_sketch_hash", 2)])
