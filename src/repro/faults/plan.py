"""Declarative fault plans.

A :class:`FaultPlan` is a pure description — which faults, where, when,
and with what intensity — that :class:`~repro.faults.injector.FaultInjector`
turns into scheduled events and delivery shaping.  Keeping the plan
declarative means a chaos run is fully specified by (plan, seed,
workload), which is what makes two runs byte-comparable.

All times in a plan are **absolute virtual times** (seconds since the
simulation epoch), matching the workload schedules in
``repro.experiments``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Link-fault kinds the injector knows how to apply.
LINK_FAULT_KINDS = ("drop", "corrupt", "duplicate", "reorder", "jitter")

#: Valid ``direction`` filters per fault site.
_LINK_DIRECTIONS = (None, "a->b", "b->a")
_CHANNEL_DIRECTIONS = (None, "c->dp", "dp->c")


@dataclass
class LinkFault:
    """One fault process on data-plane links.

    Matches links by node-name pair (``"*"`` wildcards a side) and an
    optional direction; fires per matching packet either probabilistically
    (``probability``) or deterministically (``every_nth``: the Nth, 2Nth,
    ... matching packet).  Active only inside [``start_s``, ``end_s``).
    """

    kind: str
    node_a: str = "*"
    node_b: str = "*"
    direction: Optional[str] = None
    probability: float = 0.0
    every_nth: Optional[int] = None
    start_s: float = 0.0
    end_s: Optional[float] = None
    #: Magnitude knob: reorder hold-back, duplicate offset, or max jitter.
    delay_s: float = 1e-3

    def validate(self) -> None:
        if self.kind not in LINK_FAULT_KINDS:
            raise ValueError(f"unknown link fault kind {self.kind!r} "
                             f"(expected one of {LINK_FAULT_KINDS})")
        if self.direction not in _LINK_DIRECTIONS:
            raise ValueError(f"bad direction {self.direction!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.every_nth is not None and self.every_nth < 1:
            raise ValueError("every_nth must be >= 1")
        if self.probability == 0.0 and self.every_nth is None:
            raise ValueError(f"{self.kind} fault has no trigger: set "
                             "probability or every_nth")
        if self.probability > 0.0 and self.every_nth is not None:
            raise ValueError("choose one trigger: probability or every_nth")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def active_at(self, now: float) -> bool:
        return now >= self.start_s and (self.end_s is None or now < self.end_s)


@dataclass
class NodeFault:
    """A switch crash (and optional restart).

    While crashed the node eats every arriving packet (``node_down`` drop
    reason).  ``wipe_registers`` models volatile ASIC state: every
    register — including the P4Auth key store, but *not* ``K_seed``,
    which is baked into the P4 binary — is zeroed at crash time, so a
    restarted switch must be re-keyed before authenticated operations
    succeed again.
    """

    switch: str
    crash_at_s: float
    restart_at_s: Optional[float] = None
    wipe_registers: bool = True

    def validate(self) -> None:
        if self.crash_at_s < 0:
            raise ValueError("crash_at_s must be >= 0")
        if self.restart_at_s is not None and self.restart_at_s <= self.crash_at_s:
            raise ValueError("restart_at_s must be after crash_at_s")


@dataclass
class ChannelBlackout:
    """A window during which a switch's control channel delivers nothing.

    Models a controller-switch management-network partition; KMP and
    register ops issued into the window are lost (and, with bounded
    retries enabled, eventually abandoned).
    """

    switch: str
    start_s: float
    end_s: float
    direction: Optional[str] = None

    def validate(self) -> None:
        if self.direction not in _CHANNEL_DIRECTIONS:
            raise ValueError(f"bad channel direction {self.direction!r}")
        if self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass
class FaultPlan:
    """A complete, seeded fault schedule for one chaos run."""

    seed: int = 0xFA017
    link_faults: List[LinkFault] = field(default_factory=list)
    node_faults: List[NodeFault] = field(default_factory=list)
    blackouts: List[ChannelBlackout] = field(default_factory=list)

    def validate(self) -> None:
        for fault in self.link_faults + self.node_faults + self.blackouts:
            fault.validate()

    def fault_count(self) -> int:
        return (len(self.link_faults) + len(self.node_faults)
                + len(self.blackouts))
