"""Table I: attack impact across five in-network system classes.

Runs every mini-model (Blink, SilkRoad, NetCache, FlowRadar, NetWarden)
in all three modes and assembles the Table I matrix: each row shows the
system's headline metric without an adversary, under attack, and under
attack with P4Auth — plus whether the state was silently poisoned and
whether the tamper was detected.
"""

from __future__ import annotations

from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.systems import blink, flowradar, netcache, netwarden, silkroad
from repro.systems.tableone import MODES, TableIScenarioResult

SYSTEMS = {
    "blink": blink.run_scenario,
    "silkroad": silkroad.run_scenario,
    "netcache": netcache.run_scenario,
    "flowradar": flowradar.run_scenario,
    "netwarden": netwarden.run_scenario,
}


def _trial(ctx: TrialContext) -> TableIScenarioResult:
    return SYSTEMS[ctx.params["system"]](ctx.params["mode"],
                                         telemetry=ctx.telemetry)


SPEC = register(ExperimentSpec(
    name="table1",
    title="Attack impact across system classes",
    source="Table I",
    trial=_trial,
    grid={"system": sorted(SYSTEMS), "mode": list(MODES)},
    tags=("table", "impact"),
    claims=tuple(claim(
        f"{system}_defended", "state poisoned by the attack; P4Auth detects",
        lambda run, system=system: run.by("mode", MODES, system=system),
        lambda r: r["attack"]["state_poisoned"] and r["p4auth"]["detected"]
        and not r["p4auth"]["state_poisoned"]
        and not r["baseline"]["state_poisoned"],
        "{0[baseline][impact_metric]} {0[baseline][impact_value]:.3g} / "
        "{0[attack][impact_value]:.3g} / {0[p4auth][impact_value]:.3g}")
        for system in SYSTEMS),
))
