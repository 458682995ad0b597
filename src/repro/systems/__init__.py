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
