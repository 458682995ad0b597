"""Deterministic fault injection (chaos layer) for the P4Auth reproduction.

Three pieces, composing with the simulator/network rather than forking
them:

- :mod:`repro.faults.plan` — :class:`FaultPlan`, a declarative, seeded
  schedule of link faults (drop/corrupt/duplicate/reorder/jitter), node
  faults (crash/restart with register wipe) and control-channel
  blackouts;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, which arms a
  plan against a live :class:`~repro.net.network.Network` (delivery
  shaper + scheduled events + channel taps) and tallies every injection
  through telemetry;
- :mod:`repro.faults.controller` — :class:`ControllerKillSwitch`, the
  controller-process SIGKILL action (crash at a chosen journal record
  or virtual time) driving the ``controller_crash_recovery`` experiment;
- :mod:`repro.faults.scenarios` — the chaos experiment specs, which
  replay Fig 17/20-style workloads under a plan and assert the paper's
  invariants still hold (``python -m repro run kmp-blackout``).

Determinism contract: all randomness flows from ``FaultPlan.seed``
through per-fault forked PRNGs, so a chaos run — including its telemetry
JSONL trace — is byte-identical across runs with the same seed.
"""
