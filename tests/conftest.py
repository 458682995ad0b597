"""Shared fixtures: small provisioned deployments used across suites."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.engine import TrialContext, get_spec
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.telemetry import NULL_TELEMETRY


class Deployment:
    """One controller + N switches, fully keyed and ready."""

    def __init__(self, num_switches=1, num_ports=4, connect_pairs=(),
                 protected_headers=(), bootstrap=True, registers=(),
                 telemetry=None):
        self.sim = EventSimulator(telemetry=telemetry)
        self.net = Network(self.sim)
        self.dataplanes = {}
        for index in range(1, num_switches + 1):
            name = f"s{index}"
            switch = DataplaneSwitch(name, num_ports=num_ports,
                                     seed=1000 + index)
            self.net.add_switch(switch)
            for reg_name, width, size in registers:
                switch.registers.define(f"{reg_name}", width, size)
            dataplane = P4AuthDataplane(
                switch, k_seed=0xBEE0 + index,
                config=P4AuthConfig(
                    protected_headers=set(protected_headers)),
            ).install()
            for reg_name, _w, _s in registers:
                dataplane.map_register(reg_name)
            self.dataplanes[name] = dataplane
        for (name_a, port_a, name_b, port_b) in connect_pairs:
            self.net.connect(name_a, port_a, name_b, port_b)
        self.controller = P4AuthController(self.net)
        for dataplane in self.dataplanes.values():
            self.controller.provision(dataplane)
        if bootstrap:
            finished = []
            self.controller.kmp.bootstrap_all(
                on_done=lambda: finished.append(self.sim.now))
            self.sim.run(until=5.0)
            assert finished, "key bootstrap did not complete"

    def switch(self, name: str) -> DataplaneSwitch:
        return self.net.switch(name)

    def run(self, for_s: float) -> None:
        self.sim.run(until=self.sim.now + for_s)


def pin_lane(engine, lane: str):
    """Move a software :class:`DigestEngine`'s crossover so that every
    batch takes ``lane`` ("scalar" or "vector"); returns the engine.  The
    engine itself picks a lane by batch size only."""
    engine.VECTOR_THRESHOLD = {"scalar": sys.maxsize, "vector": 1}[lane]
    return engine


def run_trial(name: str, telemetry=NULL_TELEMETRY, **params):
    """One trial of spec ``name``, as the engine would run it: the spec's
    defaults with ``params`` swept in (name every grid axis, so exactly
    one plan remains), handed to the spec's trial function with the
    plan's seed and the caller's ``telemetry``.  Returns what the trial
    returns."""
    spec = get_spec(name)
    (plan,) = spec.expand(sweep={key: [value]
                                 for key, value in params.items()})
    return spec.trial(TrialContext(dict(plan.params), plan.seed,
                                   telemetry=telemetry))


@pytest.fixture
def single_switch():
    """One switch with a demo register, keys established."""
    return Deployment(num_switches=1, registers=[("demo", 64, 16)])


@pytest.fixture
def switch_pair():
    """Two switches joined on port 1, all keys established."""
    return Deployment(num_switches=2,
                      connect_pairs=[("s1", 1, "s2", 1)],
                      registers=[("demo", 64, 16)])


@pytest.fixture
def fresh_interpreter():
    """Run a script in a new ``sys.executable`` with ``src`` on the path
    and return the JSON document it printed last: for properties of a
    process's start (``sys.modules``, allocator state) that the test
    process itself cannot show."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(script: str, *args: str):
        done = subprocess.run([sys.executable, "-c", script, *args],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    return run
