"""The three register read/write stacks compared in Figs 18 and 19.

- :mod:`repro.runtime.p4runtime` — register access through the gRPC +
  P4Runtime server + driver path (no PacketOut).  Models the paper's
  "P4Runtime" variant.
- :mod:`repro.runtime.plain` — register access via PacketOut/PacketIn
  messages processed in the data plane, with **no authentication**: the
  paper's "DP-Reg-RW" variant (and the vulnerable client the RouteScout
  attack rides on).
- The P4Auth variant is :mod:`repro.core.controller` +
  :mod:`repro.core.auth_dataplane` — DP-Reg-RW plus digests.

:mod:`repro.runtime.harness` drives any of them with the paper's
sequential request workload and reports RCT and throughput (the
``fig18`` spec, :mod:`repro.experiments.fig18_rct`);
:func:`repro.runtime.comparison.attach_stack` is the one place that
attaches any of them, by name, to a set of switches.
"""
