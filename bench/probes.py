"""Isolated probes: one public function of one layer, fixed iteration
counts, median of five repetitions, each scaled to reference speed.

They cover what the span wrappers deliberately leave alone (leaf helpers
called millions of times) and give every layer a number that does not
depend on which workload happened to call it.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import subprocess
import time
from typing import Callable, Dict

from bench.common import ROOT, child_env, python, scratch_dir, yardstick

REPS = 5
#: Fleet size of the in-process KMP and recovery probes.
FLEET = 100


def _median(rep: Callable[[], float], reps: int = REPS) -> float:
    """Median over repetitions of ``rep()`` (seconds per unit), each
    scaled by the machine speed around it."""
    values = []
    for _ in range(reps):
        before = yardstick()
        seconds = rep()
        values.append(seconds * (before + yardstick()) / 2)
    return statistics.median(values)


def _each(fn: Callable[[], object], count: int) -> Callable[[], float]:
    """A repetition that calls ``fn`` ``count`` times; seconds per call."""
    def rep() -> float:
        started = time.perf_counter()
        for _ in range(count):
            fn()
        return (time.perf_counter() - started) / count
    return rep


# -- crypto -----------------------------------------------------------------

def crypto_probes() -> Dict[str, float]:
    from repro.crypto import vectorized
    from repro.crypto.crc import Crc32
    from repro.crypto.halfsiphash import HalfSipHash
    from repro.crypto.kdf import Kdf
    from repro.crypto.modified_dh import DhParameters, dh_shared

    key = 0x0123456789ABCDEF
    message = bytes(range(28))
    hasher, crc, kdf, params = HalfSipHash(), Crc32(), Kdf(), DhParameters()
    batch = [bytes((i + j) & 0xFF for j in range(28)) for i in range(1024)]

    def vector_rep() -> float:
        started = time.perf_counter()
        vectorized.digest_many(key, batch)
        return (time.perf_counter() - started) / len(batch)

    return {
        "crypto.halfsiphash.digest_us":
            1e6 * _median(_each(lambda: hasher.digest(key, message), 200)),
        "crypto.halfsiphash.vector_us_per_msg": 1e6 * _median(vector_rep),
        "crypto.crc32.keyed_us":
            1e6 * _median(_each(lambda: crc.compute_keyed(key, message), 2000)),
        "crypto.kdf.derive_us":
            1e6 * _median(_each(lambda: kdf.derive(key, 0x5A17), 1000)),
        "crypto.dh.shared_us":
            1e6 * _median(_each(lambda: dh_shared(params, key, 0xFEED), 5000)),
    }


# -- core.digest, core.wire -------------------------------------------------

def digest_and_wire_probes() -> Dict[str, float]:
    from repro.core.digest import DigestEngine
    from repro.core.messages import build_reg_write_request
    from repro.core.wire import parse_message, serialize_message

    key = 0x0123456789ABCDEF
    engine = DigestEngine()
    packet = engine.sign(key, build_reg_write_request(3, 5, 0xBEEF, 7))
    wire = serialize_message(packet)

    def sign_many(count: int) -> Callable[[], float]:
        packets = [build_reg_write_request(3, i % 16, i, i)
                   for i in range(count)]
        rounds = max(1, 256 // count)

        def rep() -> float:
            started = time.perf_counter()
            for _ in range(rounds):
                engine.sign_many(key, packets)
            return (time.perf_counter() - started) / (rounds * count)
        return rep

    return {
        "core.digest.sign_us":
            1e6 * _median(_each(lambda: engine.sign(key, packet), 150)),
        "core.digest.verify_us":
            1e6 * _median(_each(lambda: engine.verify(key, packet), 150)),
        "core.digest.sign_many8_us_per_msg": 1e6 * _median(sign_many(8)),
        "core.digest.sign_many256_us_per_msg": 1e6 * _median(sign_many(256)),
        "core.wire.serialize_us":
            1e6 * _median(_each(lambda: serialize_message(packet), 2000)),
        "core.wire.parse_us":
            1e6 * _median(_each(lambda: parse_message(wire), 1000)),
    }


# -- core.kmp ---------------------------------------------------------------

def _keyed_fabric(m: int):
    """An m-switch random 4-regular P4Auth fabric, provisioned, unkeyed."""
    from repro.core.auth_dataplane import P4AuthDataplane
    from repro.core.controller import P4AuthController
    from repro.net.topology import random_regular_fabric

    net, extras = random_regular_fabric(m, 4, 1)
    controller = P4AuthController(net)
    for index, name in enumerate(extras["switches"]):
        dataplane = P4AuthDataplane(net.switch(name),
                                    k_seed=0x1000 + index).install()
        controller.provision(dataplane)
    return extras["sim"], controller


def kmp_probes() -> Dict[str, float]:
    """``bootstrap_all`` on the m=100 fabric, then every local and port
    key rolled once; host milliseconds per switch.  One repetition each:
    they are the two slowest probes and a whole fleet already averages."""
    sim, controller = _keyed_fabric(FLEET)
    kmp = controller.kmp
    before = yardstick()
    started = time.perf_counter()
    kmp.bootstrap_all()
    sim.run()
    bootstrap = (time.perf_counter() - started) * (before + yardstick()) / 2
    if kmp.stats.failures:
        raise RuntimeError("kmp probe: bootstrap abandoned an exchange")

    before = yardstick()
    started = time.perf_counter()
    for switch in sorted(controller.dataplanes):
        kmp.local_key_update(switch)
    for switch, port, _peer, _peer_port in kmp.switch_links():
        kmp.port_key_update(switch, port)
    sim.run()
    rollover = (time.perf_counter() - started) * (before + yardstick()) / 2
    if kmp.stats.failures:
        raise RuntimeError("kmp probe: rollover abandoned an exchange")
    return {"core.kmp.bootstrap_ms_per_switch": 1e3 * bootstrap / FLEET,
            "core.kmp.rollover_ms_per_switch": 1e3 * rollover / FLEET}


# -- dataplane, net ---------------------------------------------------------

def dataplane_and_net_probes() -> Dict[str, float]:
    from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
    from repro.core.controller import P4AuthController
    from repro.dataplane.packet import Packet
    from repro.dataplane.switch import DataplaneSwitch
    from repro.net.network import Network
    from repro.net.simulator import EventSimulator
    from repro.net.topology import linear_chain
    from repro.systems.hula import (
        HulaConfig, HulaDataplane, make_data_packet, make_probe)
    from repro.systems.l3fwd import IPV4_HEADER, L3ForwardingDataplane

    data = make_data_packet(5, flow_id=77, seq=1)

    def size_rep() -> float:
        started = time.perf_counter()
        for _ in range(5000):
            data.size_bytes
        return (time.perf_counter() - started) / 5000

    # Plain L3 forwarding: two tables and one register per packet.
    l3_switch = DataplaneSwitch("probe-l3", num_ports=4)
    forwarder = L3ForwardingDataplane(l3_switch).install()
    forwarder.add_route(0x0A000000, 8, 2)
    l3_packet = Packet()
    l3_packet.push("ipv4", IPV4_HEADER.instantiate(
        src=0x0A000001, dst=0x0A000002, ttl=64, proto=6, flow_id=9))

    # The P4Auth overlay verifying and re-signing a HULA probe hop.
    chain, extras = linear_chain(2)
    dataplanes = []
    for index, name in enumerate(extras["switches"]):
        HulaDataplane(chain.switch(name), HulaConfig(
            probe_routes={1: [2]}, uplink_ports=[2])).install()
        dataplanes.append(P4AuthDataplane(
            chain.switch(name), k_seed=0xAB00 + index,
            config=P4AuthConfig(protected_headers={"hula_probe"})).install())
    controller = P4AuthController(chain)
    for dataplane in dataplanes:
        controller.provision(dataplane)
    controller.kmp.bootstrap_all()
    extras["sim"].run()
    first, second = (chain.switch(name) for name in extras["switches"])
    signed = first.process(make_probe(5, 1), 1)[0].packet

    def p4auth_rep() -> float:
        started = time.perf_counter()
        for _ in range(50):
            second.process(signed.copy(), 1)
        return (time.perf_counter() - started) / 50

    def event_rep() -> float:
        sim = EventSimulator()
        for index in range(40_000):
            sim.schedule(index * 1e-6, _noop)
        started = time.perf_counter()
        sim.run()
        return (time.perf_counter() - started) / 40_000

    def hop_rep() -> float:
        """Host -> switch -> host over two links, per link crossing."""
        sim = EventSimulator()
        net = Network(sim)
        net.add_switch(DataplaneSwitch("hop", num_ports=2))
        HulaDataplane(net.switch("hop"), HulaConfig(
            edge_delivery={5: 2})).install()
        source, sink = net.add_host("a"), net.add_host("b")
        sink.on_packet = lambda _packet, _now: sink.received.clear()
        net.connect("a", 1, "hop", 1)
        net.connect("hop", 2, "b", 1)
        for seq in range(1000):
            source.send(make_data_packet(5, flow_id=seq, seq=seq))
        started = time.perf_counter()
        sim.run()
        return (time.perf_counter() - started) / 2000

    return {
        "dataplane.packet.copy_us": 1e6 * _median(_each(data.copy, 2000)),
        "dataplane.packet.size_bytes_ns": 1e9 * _median(size_rep),
        "dataplane.packet.serialize_us":
            1e6 * _median(_each(data.serialize, 2000)),
        "dataplane.switch.process_l3fwd_us": 1e6 * _median(
            _each(lambda: l3_switch.process(l3_packet, 1), 1000)),
        "dataplane.switch.process_p4auth_us": 1e6 * _median(p4auth_rep),
        "net.simulator.event_us": 1e6 * _median(event_rep),
        "net.network.hop_us": 1e6 * _median(hop_rep),
    }


def _noop() -> None:
    pass


# -- store ------------------------------------------------------------------

def store_probes() -> Dict[str, float]:
    from repro.store import Journal, SnapshotStore, warm_restart

    root = scratch_dir("probe-store-")
    try:
        record = {"switch": "sw7", "seq": 4096}

        def append_rep(policy: str, count: int) -> Callable[[], float]:
            serial = [0]

            def rep() -> float:
                serial[0] += 1
                journal = Journal(
                    os.path.join(root, f"{policy}{serial[0]}"), fsync=policy)
                journal.open()
                try:
                    started = time.perf_counter()
                    for _ in range(count):
                        journal.append("seq_advance", record)
                    return (time.perf_counter() - started) / count
                finally:
                    journal.close()
            return rep

        # A live, keyed m=100 controller journaled into a state dir gives
        # the snapshot and the recovery something of realistic size.
        sim, controller = _keyed_fabric(FLEET)
        done = []
        for switch in sorted(controller.dataplanes):
            controller.kmp.local_key_init(switch, on_done=done.append)
        sim.run()
        state_dir = os.path.join(root, "fleet")
        recorder, _report = warm_restart(state_dir, controller,
                                         fsync="never", reconcile=False)
        snapshots = SnapshotStore(os.path.join(root, "snapshots"))

        def snapshot_rep() -> float:
            started = time.perf_counter()
            snapshots.save(recorder.state)
            return time.perf_counter() - started

        recorder.journal.close()
        recorder.detach()

        def recovery_rep() -> float:
            _sim, fresh = _keyed_fabric(FLEET)
            started = time.perf_counter()
            again, _ = warm_restart(state_dir, fresh, fsync="never",
                                    reconcile=False)
            elapsed = time.perf_counter() - started
            again.journal.close()
            again.detach()
            return elapsed

        return {
            "store.journal.append_us":
                1e6 * _median(append_rep("never", 1000)),
            "store.journal.append_durable_us":
                1e6 * _median(append_rep("always", 50)),
            "store.snapshot.save_ms": 1e3 * _median(snapshot_rep),
            "store.recovery.warm_restart_ms":
                1e3 * _median(recovery_rep, reps=3),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- service ----------------------------------------------------------------

def service_probes() -> Dict[str, float]:
    from repro.service import (
        ControllerService, FleetConfig, HttpServer, RequestAuthenticator,
        ServiceClient)
    from bench.loadgen import Connection, render

    auth = RequestAuthenticator("probe-secret")
    body = b'{"index": 3, "register": "target", "switch": "sw42"}'
    token = auth.token("POST", "/v1/read", body)
    results: Dict[str, float] = {
        "service.auth.token_us": 1e6 * _median(
            _each(lambda: auth.token("POST", "/v1/read", body), 100)),
        "service.auth.verify_us": 1e6 * _median(
            _each(lambda: auth.verify("POST", "/v1/read", body, token), 100)),
    }

    async def socket_and_dispatch() -> None:
        service = ControllerService(FleetConfig(m=8, shards=1))
        await service.start()
        server = HttpServer(service, port=0)
        port = await server.start()
        connection = await Connection(port).open()
        client = ServiceClient(service)
        healthz = render("GET", "/healthz")
        try:
            async def many(call, count: int) -> float:
                started = time.perf_counter()
                for _ in range(count):
                    await call()
                return (time.perf_counter() - started) / count

            async def median(call, count: int) -> float:
                values = []
                for _ in range(REPS):
                    before = yardstick()
                    seconds = await many(call, count)
                    values.append(seconds * (before + yardstick()) / 2)
                return statistics.median(values)

            results["service.http.healthz_rt_us"] = 1e6 * await median(
                lambda: connection.roundtrip(healthz), 100)
            results["service.daemon.dispatch_read_us"] = 1e6 * await median(
                lambda: client.read("sw3", "target", 1), 30)
        finally:
            await connection.close()
            await server.stop()
            await service.stop()

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(socket_and_dispatch())
    finally:
        loop.close()
    return results


# -- engine -----------------------------------------------------------------

def engine_probes() -> Dict[str, float]:
    from repro.engine.artifact import write_artifact
    from repro.engine.canon import SCHEMA

    def startup_rep() -> float:
        started = time.perf_counter()
        subprocess.run([python(), "-m", "repro"], cwd=str(ROOT),
                       env=child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - started

    trials = [{"id": f"t[{i}]", "params": {"rate": i, "mode": "p4auth"},
               "seed": i, "result": {"detected": True, "latency_s": i / 7,
                                     "counters": list(range(16))}}
              for i in range(48)]
    document = {"schema": SCHEMA, "experiment": "probe", "spec_version": 1,
                "source": "bench", "title": "artifact probe",
                "base_seed": 1, "trials": trials, "run_meta": {}}
    out_dir = scratch_dir("probe-engine-")
    try:
        write_ms = 1e3 * _median(_each(
            lambda: write_artifact(document, out_dir), 5))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"engine.startup_s": _median(startup_rep, reps=3),
            "engine.artifact_write_ms": write_ms}


GROUPS = (crypto_probes, digest_and_wire_probes, kmp_probes,
          dataplane_and_net_probes, store_probes, service_probes,
          engine_probes)


def run_all() -> Dict[str, float]:
    results: Dict[str, float] = {}
    for group in GROUPS:
        results.update(group())
    return results
