"""The three register-access stacks of Figs 18 and 19, by name.

:func:`attach_stack` installs one of them (P4Runtime, DP-Reg-RW,
P4Auth) on already-programmed switches, and :func:`build_stack` builds
the single-switch deployment the ``fig18`` spec
(:mod:`repro.experiments.fig18_rct`) drives.  No spec lives here, so
the controller service, which attaches its shards' stacks through this
module, loads no experiment engine.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
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


def build_stack(name: str, costs=None, telemetry=None, **p4auth_kwargs):
    """A fresh deployment of one stack; returns (sim, stack).
    ``p4auth_kwargs`` go to the P4Auth controller, as in
    :func:`attach_stack`."""
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim, costs)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("target", 64, 16)
    stack, _dataplanes = attach_stack(name, net, ["s1"], ["target"],
                                      {"s1": 0x42}, 0.1, **p4auth_kwargs)
    return sim, stack
