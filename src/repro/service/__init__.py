"""``repro.service`` — the long-running, sharded P4Auth controller daemon.

Everything before this package drives the controller from *inside* an
experiment run: build a deployment, issue a workload, tear it down.  A
production traffic-control system (ROADMAP north star) instead runs the
controller as a standing service that owns a switch fleet and serves
authenticated register operations to many concurrent clients.  This
package is that service front-end:

- :mod:`repro.service.shardmap` — a consistent-hash ownership map with
  bounded loads: every switch is owned by exactly one shard, adding a
  shard moves few switches, and no shard is assigned more than
  ``LOAD_FACTOR`` times its fair share of the fleet.
- :mod:`repro.service.shard` — a :class:`ShardWorker` per shard: one
  deterministic simulator + network + register-access stack for the
  owned switches, a bounded FIFO intake queue, and a
  :class:`~repro.runtime.batch.BatchController` issue engine capped at
  ``issue_window`` total in-flight requests (the shard's share of the
  §IV outstanding-request DoS budget).
- :mod:`repro.service.daemon` — :class:`ControllerService`: routes
  requests to owner shards, aggregates fleet status and Prometheus
  metrics, and performs graceful drain on shutdown.  Its
  :meth:`~ControllerService.dispatch` method is the single
  (authenticated) request surface shared by the HTTP codec and the
  in-process client.
- :mod:`repro.service.auth` — keyed-token request authentication:
  stdlib HMAC-SHA256 over whole bodies, not the switch's HalfSipHash
  (§VII's reasons are Tofino's; see DESIGN.md "Auth & API").
- :mod:`repro.service.http` — a dependency-free asyncio HTTP/1.1 codec
  over ``dispatch`` (FastAPI is not available in the pinned
  environment, so the stdlib server is the default and only stack).
- :mod:`repro.service.client` — :class:`ServiceClient`, the in-process
  client used by tests, the load experiment
  (``cdp_service_load``), and the ``--smoke`` self-check.

Ordering guarantee: all requests for one switch land on its owner
shard's FIFO intake queue in arrival order, and the BatchController
never reorders a switch's FIFO — so the data plane's monotonic
``expected_seq`` replay defense sees in-order sequence numbers no
matter how many clients interleave.
"""

from repro.service.auth import RequestAuthenticator
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ControllerService, FleetConfig
from repro.service.http import HttpServer
from repro.service.shard import ShardOverload, ShardWorker
from repro.service.shardmap import ShardMap

__all__ = [
    "ControllerService",
    "FleetConfig",
    "HttpServer",
    "RequestAuthenticator",
    "ServiceClient",
    "ServiceError",
    "ShardMap",
    "ShardOverload",
    "ShardWorker",
]
