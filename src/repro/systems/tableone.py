"""Shared harness for the Table I attack-impact scenarios.

Each Table I row (Blink, SilkRoad, NetCache, FlowRadar, NetWarden) is a
mini-model with the same three-mode contract:

- ``baseline`` — unauthenticated DP-Reg-RW control stack, no adversary;
- ``attack``   — same stack plus the row's C-DP adversary;
- ``p4auth``   — P4Auth-protected stack against the same adversary.

Every scenario returns a :class:`TableIScenarioResult` whose
``impact_value`` is the row's headline metric (delivery rate, wrong-DIP
fraction, retrieval latency, count error, detection rate) and whose
``state_poisoned`` / ``detected`` flags capture the qualitative claim:
without P4Auth the state is silently poisoned; with it the tamper is
rejected and surfaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.auth_dataplane import P4AuthDataplane
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.comparison import attach_stack

MODES = ("baseline", "attack", "p4auth")


@dataclass
class TableIScenarioResult:
    system: str
    mode: str
    impact_metric: str
    impact_value: float
    state_poisoned: bool
    detected: bool
    notes: str = ""


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def build_deployment(mode: str, switch: DataplaneSwitch,
                     net: Network, sim: EventSimulator,
                     k_seed: int = 0x7AB1E1) -> Tuple[object, Optional[P4AuthDataplane]]:
    """Attach the mode's control stack to an already-programmed switch.

    Returns ``(client, p4auth_dataplane_or_None)``.  Must be called after
    the system's registers and stages are installed (the stack's verify
    stage wraps the existing pipeline and maps the existing registers).
    """
    check_mode(mode)
    client, dataplanes = attach_stack(
        "P4Auth" if mode == "p4auth" else "DP-Reg-RW", net, [switch.name],
        None, {switch.name: k_seed}, 0.05)
    return client, dataplanes[switch.name] if mode == "p4auth" else None
