"""``python -m repro serve`` — run the controller daemon.

    python -m repro serve                       # defaults: m=25, 2 shards
    python -m repro serve --m 100 --shards 4 --port 9418
    python -m repro serve --stack DP-Reg-RW --run-for 30
    python -m repro serve --smoke               # in-process self-check

``--smoke`` skips the socket entirely: it stands the daemon up
in-process, drives read/write/batch/rollover/status/metrics through
:class:`~repro.service.client.ServiceClient`, asserts a clean drain on
shutdown, and exits 0/1 — the CI service-smoke job.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.runtime.comparison import STACKS
from repro.service.daemon import ControllerService, FleetConfig
from repro.service.http import HttpServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the sharded P4Auth controller daemon.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9418,
                        help="TCP port (0 picks a free port)")
    parser.add_argument("--stack", default="P4Auth", choices=STACKS)
    parser.add_argument("--m", type=int, default=25,
                        help="fleet size (switches sw0..sw<m-1>)")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--max-in-flight", type=int, default=8,
                        help="per-switch pipelining window")
    parser.add_argument("--issue-window", type=int, default=32,
                        help="per-shard total in-flight cap")
    parser.add_argument("--queue-depth", type=int, default=1024,
                        help="per-shard intake queue bound (503 beyond)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--state-dir", default=None,
                        help="durable-state root (P4Auth only): per-shard "
                             "write-ahead journals + snapshots; restarting "
                             "with the same directory warm-restarts the "
                             "fleet's keys and sequence state")
    parser.add_argument("--fsync", default="batch",
                        choices=["always", "batch", "never"],
                        help="journal fsync policy (batch: group-commit "
                             "on durable records)")
    parser.add_argument("--snapshot-every", type=int, default=256,
                        metavar="RECORDS",
                        help="compact the journal into a snapshot every "
                             "N records (0 disables auto-snapshots)")
    parser.add_argument("--secret", default=None,
                        help="deployment auth secret (default: the dev "
                             "secret; never use the default in earnest)")
    parser.add_argument("--run-for", type=float, default=None,
                        metavar="SECONDS",
                        help="serve for a fixed wall-clock duration, then "
                             "drain and exit (useful for CI)")
    parser.add_argument("--smoke", action="store_true",
                        help="in-process self-check (no sockets); exit "
                             "0 iff every endpoint works and drain is "
                             "clean")
    return parser


def config_from_args(args) -> FleetConfig:
    kwargs = dict(stack=args.stack, m=args.m, shards=args.shards,
                  max_in_flight=args.max_in_flight,
                  issue_window=args.issue_window,
                  queue_depth=args.queue_depth, seed=args.seed,
                  state_dir=args.state_dir, fsync=args.fsync,
                  snapshot_every=args.snapshot_every or None)
    if args.secret is not None:
        kwargs["auth_secret"] = args.secret
    return FleetConfig(**kwargs)


async def _serve(args, config: FleetConfig) -> int:
    service = ControllerService(config)
    await service.start()
    server = HttpServer(service, host=args.host, port=args.port)
    port = await server.start()
    config = service.config
    print(f"# repro.service listening on http://{args.host}:{port}")
    print(f"# fleet: stack={config.stack} m={config.m} "
          f"shards={config.shards} "
          f"issue_window={config.issue_window} "
          f"queue_depth={config.queue_depth}")
    if config.state_dir is not None:
        recovered = service.status()["fleet"]["recovered_shards"]
        print(f"# durable state: {config.state_dir} "
              f"(fsync={config.fsync}, "
              f"recovered {recovered}/{config.shards} shards)")
    for shard_id in config.shard_ids:
        owned = len(service.assignment[shard_id])
        print(f"#   {shard_id}: {owned} switches")
    print("# authenticated endpoints expect X-P4Auth-Token "
          "(see DESIGN.md 'Controller service')")

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    if args.run_for is not None:
        loop.call_later(args.run_for, stop.set)
    await stop.wait()
    print("# draining...")
    await server.stop()
    await service.stop()
    status = service.status()["fleet"]
    print(f"# drained: {status['completed']} completed, "
          f"{status['failed']} failed, {status['rejected']} rejected")
    return 0 if service.idle else 1


async def _smoke(config: FleetConfig) -> int:
    """Drive every endpoint in-process; assert a clean drain."""
    from repro.service.client import ServiceClient, ServiceError

    service = ControllerService(config)
    await service.start()
    client = ServiceClient(service)
    failures = []

    def check(label: str, condition: bool) -> None:
        print(f"# {'ok  ' if condition else 'FAIL'} {label}")
        if not condition:
            failures.append(label)

    switches = service.config.switch_names
    reg = service.config.registers[0][0]
    health = await client.healthz()
    check("healthz", health.get("ok") is True)
    for offset, name in enumerate(switches[:8]):
        result = await client.write(name, reg, offset % 4, 0xBEE0 + offset)
        check(f"write {name}", result["ok"])
    for offset, name in enumerate(switches[:8]):
        result = await client.read(name, reg, offset % 4)
        check(f"read {name}",
              result["ok"] and result["value"] == 0xBEE0 + offset)
    batch = await client.batch([
        {"kind": "write", "switch": switches[0], "register": reg,
         "index": 9, "value": 7},
        {"kind": "read", "switch": switches[0], "register": reg,
         "index": 9},
    ])
    check("batch FIFO read-your-write",
          batch["results"][1].get("value") == 7)
    if service.config.stack == "P4Auth":
        rolled = await client.rollover(switches[0])
        check("rollover", rolled["ok"])
    status = await client.status()
    check("status shard table",
          len(status["shards"]) == service.config.shards)
    metrics = await client.metrics()
    check("metrics exposition",
          "service_requests_total" in metrics
          and "service_shard_in_flight" in metrics)
    try:
        await client.read("not-a-switch")
        check("unknown switch -> 404", False)
    except ServiceError as exc:
        check("unknown switch -> 404", exc.status == 404)
    bad = ServiceClient(service, secret="wrong-secret")
    try:
        await bad.status()
        check("bad token -> 401", False)
    except ServiceError as exc:
        check("bad token -> 401", exc.status == 401)

    await service.stop()
    check("clean drain", service.idle)
    check("zero failures",
          service.status()["fleet"]["failed"] == 0)
    if failures:
        print(f"# smoke FAILED: {failures}", file=sys.stderr)
        return 1
    print("# smoke passed")
    return 0


def cmd_serve(argv) -> int:
    """Exits 2 with one stderr line, before any shard is built, on a
    setting the fleet refuses."""
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return asyncio.run(_smoke(config))
    return asyncio.run(_serve(args, config))


__all__ = ["build_parser", "cmd_serve", "config_from_args"]
