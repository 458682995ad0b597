"""The three register read/write stacks compared in Figs 18 and 19.

- :class:`P4RuntimeStack` — register access through the gRPC + P4Runtime
  server + driver path (no PacketOut).  Models the paper's "P4Runtime"
  variant.
- :class:`PlainRegOpDataplane` / :class:`PlainController` — register
  access via PacketOut/PacketIn messages processed in the data plane,
  with **no authentication**: the paper's "DP-Reg-RW" variant (and the
  vulnerable client the RouteScout attack rides on).
- The P4Auth variant is :class:`repro.core.P4AuthController` +
  :class:`repro.core.P4AuthDataplane` — DP-Reg-RW plus digests.

:mod:`repro.runtime.harness` drives any of them with the paper's
sequential request workload and reports RCT and throughput;
:func:`repro.runtime.comparison.attach_stack` is the one place that
attaches any of them, by name, to a set of switches.
"""

from repro.runtime.plain import (
    CTL_HEADER,
    PlainRegOpDataplane,
    PlainController,
)
from repro.runtime.p4runtime import P4RuntimeStack
from repro.runtime.harness import RunStats, run_sequential
from repro.runtime.comparison import STACKS, attach_stack, build_stack

__all__ = [
    "CTL_HEADER",
    "PlainRegOpDataplane",
    "PlainController",
    "P4RuntimeStack",
    "RunStats",
    "run_sequential",
    "STACKS",
    "attach_stack",
    "build_stack",
]
