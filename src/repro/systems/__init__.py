"""In-network systems that P4Auth protects.

The two headline victims from the paper's evaluation:

- :mod:`repro.systems.hula` — HULA probe-based load balancing (Fig 3,
  Fig 17, Fig 21);
- :mod:`repro.systems.routescout` — RouteScout performance-aware routing
  (Fig 2, Fig 16).

Plus one mini-model per row of Table I (:mod:`repro.systems.blink`,
:mod:`~repro.systems.silkroad`, :mod:`~repro.systems.netcache`,
:mod:`~repro.systems.flowradar`, :mod:`~repro.systems.netwarden`) and the
baseline L3 forwarder the performance evaluation builds on
(:mod:`repro.systems.l3fwd`).
"""

from repro.systems.l3fwd import L3ForwardingDataplane
from repro.systems.hula import (
    HulaConfig,
    HulaDataplane,
    HULA_PROBE_HEADER,
    HULA_DATA_HEADER,
    make_probe,
    make_data_packet,
)
from repro.systems.routescout import (
    RouteScoutConfig,
    RouteScoutDataplane,
    RouteScoutController,
    PathModel,
)
from repro.systems.tableone import TableIScenarioResult
from repro.systems import blink, silkroad, netcache, flowradar, netwarden
from repro.systems.inaggr import (
    AggregationConfig,
    AggregationDataplane,
)
from repro.systems.int_telemetry import (
    IntCollector,
    IntConfig,
    IntTelemetryDataplane,
    make_int_probe,
)

__all__ = [
    "L3ForwardingDataplane",
    "HulaConfig",
    "HulaDataplane",
    "HULA_PROBE_HEADER",
    "HULA_DATA_HEADER",
    "make_probe",
    "make_data_packet",
    "RouteScoutConfig",
    "RouteScoutDataplane",
    "RouteScoutController",
    "PathModel",
]
