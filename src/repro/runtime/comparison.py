"""The Fig 18/19 stack comparison.

Each trial builds one of the three register-access stacks (P4Runtime,
DP-Reg-RW, P4Auth) on a fresh single-switch deployment and drives the
paper's sequential read or write workload against it; the ``fig18``
spec is that trial, and its claims read Fig 18 (request completion time)
and Fig 19 (throughput) off the same trial matrix.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.harness import RunStats, run_sequential
from repro.runtime.p4runtime import P4RuntimeStack
from repro.runtime.plain import PlainController, PlainRegOpDataplane

STACKS = ("P4Runtime", "DP-Reg-RW", "P4Auth")


def k_seeds_from(base: int, switches: Sequence[str]) -> Dict[str, int]:
    """The K_seed provisioning rule of every deployment built here:
    ``base`` plus the switch's position in ``switches``."""
    return {name: base + index for index, name in enumerate(switches)}


def attach_stack(stack_name: str, net: Network, switches: Sequence[str],
                 registers: Optional[Sequence[str]],
                 k_seeds: Mapping[str, int],
                 bootstrap_deadline_s: Optional[float],
                 request_timeout_s: Optional[float] = None,
                 config: Optional[P4AuthConfig] = None,
                 **p4auth_kwargs):
    """Attach one register-access stack to already-programmed switches.

    Installs the stack's data-plane half on every named switch, maps
    ``registers`` (``None``: every program register), provisions the
    controller, and for P4Auth runs the local-key bootstrap for up to
    ``bootstrap_deadline_s`` of virtual time (``None`` skips it: the
    caller bootstraps or installs key material itself), raising if a
    switch is left unkeyed.  ``k_seeds`` (per switch), ``config`` (one
    :class:`P4AuthConfig` shared by every data plane built here, e.g.
    the DP-DP ``protected_headers``) and ``p4auth_kwargs`` (controller
    constructor) apply to P4Auth only.  Returns ``(stack, dataplanes)``
    with ``dataplanes`` keyed by switch name (empty for P4Runtime).
    """
    if stack_name not in STACKS:
        raise ValueError(f"stack must be one of {STACKS}")
    dataplanes: Dict[str, object] = {}
    if stack_name == "P4Runtime":
        stack = P4RuntimeStack(net, request_timeout_s=request_timeout_s)
    elif stack_name == "DP-Reg-RW":
        stack = PlainController(net, request_timeout_s=request_timeout_s)
    else:
        stack = P4AuthController(net, request_timeout_s=request_timeout_s,
                                 **p4auth_kwargs)
    for name in switches:
        switch = net.switch(name)
        if stack_name == "P4Runtime":
            stack.provision(switch)
            continue
        if stack_name == "DP-Reg-RW":
            dataplane = PlainRegOpDataplane(switch).install()
        else:
            dataplane = P4AuthDataplane(switch, k_seed=k_seeds[name],
                                        config=config).install()
        if registers is None:
            dataplane.map_all_registers()
        else:
            for reg_name in registers:
                dataplane.map_register(reg_name)
        stack.provision(switch if stack_name == "DP-Reg-RW" else dataplane)
        dataplanes[name] = dataplane
    if stack_name == "P4Auth" and bootstrap_deadline_s is not None:
        bootstrap_local_keys(stack, switches, bootstrap_deadline_s)
    return stack, dataplanes


def bootstrap_local_keys(controller: P4AuthController,
                         switches: Sequence[str], deadline_s: float) -> None:
    """Run the local-key handshakes in parallel for up to ``deadline_s``
    of virtual time; raises, naming them, if switches are left unkeyed."""
    outcomes = []
    for name in switches:
        controller.kmp.local_key_init(name, on_done=outcomes.append)
    controller.sim.run(until=controller.sim.now + deadline_s)
    keyed = {outcome.switch for outcome in outcomes if outcome.ok}
    unkeyed = [name for name in switches if name not in keyed]
    if unkeyed:
        raise RuntimeError(
            f"key bootstrap incomplete: {len(keyed)}/{len(switches)} "
            f"switches, no local key on {unkeyed}")


def build_stack(name: str, costs=None, telemetry=None):
    """A fresh deployment of one stack; returns (sim, stack)."""
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim, costs)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("target", 64, 16)
    stack, _dataplanes = attach_stack(name, net, ["s1"], ["target"],
                                      {"s1": 0x42}, 0.1)
    return sim, stack


def stats_to_dict(stats: RunStats, stack: str,
                  include_samples: bool = False) -> dict:
    """Canonical trial form of one sequential run (Fig 18/19 columns)."""
    out = {
        "stack": stack,
        "kind": stats.kind,
        "duration_s": stats.duration_s,
        "completed": stats.completed,
        "throughput_rps": stats.throughput_rps,
        "mean_rct_s": stats.mean_rct_s,
        "p5_rct_s": stats.percentile_rct_s(5),
        "p50_rct_s": stats.percentile_rct_s(50),
        "p95_rct_s": stats.percentile_rct_s(95),
        "p99_rct_s": stats.percentile_rct_s(99),
    }
    if include_samples:
        out["rcts_s"] = list(stats.rcts_s)
    return out


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    costs = None
    if p["jitter_fraction"]:
        from repro.net.costs import CostModel
        costs = CostModel(jitter_fraction=p["jitter_fraction"])
    sim, stack = build_stack(p["stack"], costs, telemetry=ctx.telemetry)
    stats = run_sequential(sim, stack, p["kind"], "s1", "target",
                           duration_s=p["duration_s"])
    return stats_to_dict(stats, p["stack"],
                         include_samples=p["include_samples"])


def _per_stack(run, key: str, jitter: float = 0.0) -> List[List[float]]:
    """``key`` of each stack's read, then write, trial at ``jitter``."""
    return [[run.result_for(stack=stack, kind=kind, jitter_fraction=jitter)[
        key] for stack in STACKS] for kind in ("read", "write")]


SPEC = register(ExperimentSpec(
    name="fig18",
    title="Register R/W request completion time and throughput",
    source="Fig 18, Fig 19",
    trial=_trial,
    grid={"stack": list(STACKS), "kind": ["read", "write"]},
    defaults={"duration_s": 10.0, "jitter_fraction": 0.0,
              "include_samples": False},
    short={"duration_s": 1.0},
    tags=("figure", "runtime"),
    # Read off [read, write] x [P4Runtime, DP-Reg-RW, P4Auth].
    claims=(
        claim("fig18_rct", "P4Auth ≈ DP-Reg-RW; writes > reads, every stack",
              lambda run: _per_stack(run, "mean_rct_s"),
              lambda rct: all(w > r for r, w in zip(*rct)) and all(
                  abs(kind[2] / kind[1] - 1) < 0.10 for kind in rct),
              "P4Auth {0[0][2]:.3g} / {0[1][2]:.3g} s, "
              "DP-Reg-RW {0[0][1]:.3g} / {0[1][1]:.3g} s"),
        claim("fig18_rct_cdf_ordering", "DP-Reg-RW <= P4Auth <= P4Runtime "
              "at p5/p50/p95 (15 % transit jitter)",
              lambda run: [_per_stack(run, key, 0.15)[0]
                           for key in ("p5_rct_s", "p50_rct_s", "p95_rct_s")],
              lambda pcts: all(p[1] <= p[2] <= p[0] * 1.05 for p in pcts),
              "p50 {0[1][1]:.3g} / {0[1][2]:.3g} / {0[1][0]:.3g} s"),
        claim("fig19_p4runtime_read_write_ratio",
              "1.7x; writes alike on every stack",
              lambda run: _per_stack(run, "throughput_rps"),
              lambda rps: 1.5 < rps[0][0] / rps[1][0] < 1.9
              and max(rps[1]) / min(rps[1]) < 1.1,
              "{0[0][0]:.0f} / {0[1][0]:.0f} req/s"),
        claim("fig19_p4auth_drops", "-4.2 % read, -2.1 % write",
              lambda run: [1 - rps[2] / rps[1]
                           for rps in _per_stack(run, "throughput_rps")],
              lambda drop: 0.02 < drop[0] < 0.07 and 0.01 < drop[1] < 0.05,
              "-{0[0]:.1%} read, -{0[1]:.1%} write"),
    ),
))
