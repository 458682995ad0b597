"""A timing-free budget for one forwarding pass: Python calls per pipeline
pass on the HULA Fig 3 fabric, plain and with the P4Auth overlay.

The host-time benchmark (``fwd_plain`` / ``fwd_p4auth``) measures what a
pass costs; this counts the ``sys.setprofile`` ``"call"`` events into
``repro`` functions that a pass makes, which no machine load moves.  A
framework frame that comes back to the hop (a per-packet helper, a
property read on every handler, a tap walk over an empty list, a no-op
metric update with telemetry off) shows up here as a higher count before
it shows up as a slower benchmark.

Comprehension and generator-expression frames are left out: Python 3.12
inlines comprehensions that 3.9-3.11 call, and the budget must read the
same on each.  The Python HalfSipHash kernel is pinned, so the count does
not depend on whether the C kernel built.
"""

import functools
import os
import random
import sys

import pytest

import repro
from repro.attacks.link import ProbeFieldTamperer
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network, SwitchNode
from repro.net.topology import hula_fig3_topology
from repro.systems.hula import (
    HulaDataplane,
    fig3_hula_configs,
    make_data_packet,
    make_probe,
)

#: Most calls into ``repro`` per pipeline pass.  Before the hop lost its
#: framework frames (``_run_one``, ``valid_port``, ``Link.transit`` on
#: every link, the ``sim.now`` property, two wire-size reads, a header
#: name list per P4Auth guard) the same traffic made 43.1 and 54.0; before
#: it stopped calling no-op metric handles with telemetry off and HULA
#: stopped repeating its header lookups, 35.6 and 44.5.
BUDGET = {"plain": 25.0, "p4auth": 32.0}

ROOT = os.path.dirname(repro.__file__) + os.sep
TELEMETRY = os.path.join(ROOT, "telemetry") + os.sep
#: The forwarding hop's frames: with telemetry off none of them calls
#: into ``repro.telemetry`` (no null-metric update, no lookup).
HOP = {Pipeline.run.__code__, DataplaneSwitch.process.__code__,
       SwitchNode.receive.__code__, Network.transmit.__code__}
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
DST_TOR = 5
BOOTSTRAP_S = 0.1
TRAFFIC_S = 0.05


def fig3_hula_fabric(p4auth: bool, telemetry=None):
    """The Fig 3 fabric with HULA on every switch, built as the ``fwd``
    benchmark builds it; with ``p4auth``, the overlay and its key
    bootstrap too.  Returns ``(net, sim, h1, h5, hulas)``, one HULA
    program per switch in switch-name order."""
    net, extras = hula_fig3_topology(telemetry)
    sim = extras["sim"]
    configs = fig3_hula_configs()
    hulas = [HulaDataplane(net.switch(name), configs[name]).install()
             for name in sorted(configs)]
    switches = [hula.switch for hula in hulas]
    if p4auth:
        config = P4AuthConfig(protected_headers={"hula_probe"})
        dataplanes = [P4AuthDataplane(switch, k_seed=0xAB00 + index,
                                      config=config).install()
                      for index, switch in enumerate(switches)]
        controller = P4AuthController(net)
        for dataplane in dataplanes:
            controller.provision(dataplane)
        controller.kmp.bootstrap_all()
        sim.run(until=BOOTSTRAP_S)
        assert not controller.kmp.stats.failures
    return net, sim, extras["h1"], extras["h5"], hulas


def fig3_fabric(p4auth: bool, telemetry=None):
    """:func:`fig3_hula_fabric` with the switches in place of their HULA
    programs: ``(net, sim, h1, h5, switches)``."""
    net, sim, h1, h5, hulas = fig3_hula_fabric(p4auth, telemetry)
    return net, sim, h1, h5, [hula.switch for hula in hulas]


def tamper_s1_s4(net) -> None:
    """``fwd_p4auth``'s tamperer: S1 catches each probe it rewrites."""
    ProbeFieldTamperer("hula_probe", "path_util", 2,
                       direction_filter="b->a").attach(
        net.link_between("s1", "s4"))


def traffic(sim, h1, h5, start: float, end: float) -> None:
    """Seeded data packets from h1 and a probe every 5 ms from h5."""
    rng = random.Random(21)

    def probe(probe_id: int) -> None:
        if sim.now < end:
            h5.send(make_probe(DST_TOR, probe_id))
            sim.schedule(0.005, probe, probe_id + 1)

    def data(seq: int) -> None:
        if sim.now < end:
            h1.send(make_data_packet(
                DST_TOR, flow_id=rng.getrandbits(32), seq=seq,
                size_bytes=rng.choice((64, 64, 256, 1408))))
            sim.schedule(0.0002 * (0.5 + rng.random()), data, seq + 1)

    sim.schedule_at(start, probe, 0)
    sim.schedule_at(start + 0.01, data, 0)


@functools.lru_cache(maxsize=None)
def profile_passes(p4auth: bool):
    """``(calls into repro, of them calls from the hop's frames into
    repro.telemetry)`` per pipeline pass, with telemetry off: one profiled
    run per fabric serves every test here."""
    net, sim, h1, h5, switches = fig3_fabric(p4auth)
    if p4auth:
        tamper_s1_s4(net)
    start = max(sim.now, BOOTSTRAP_S)
    traffic(sim, h1, h5, start, start + TRAFFIC_S)
    sim.run(until=start + 0.02)  # past the first probe round: warm state
    passes_before = sum(switch.pipeline_passes for switch in switches)
    calls = hop_telemetry = 0

    def count(frame, event, _arg):
        nonlocal calls, hop_telemetry
        if event == "call":
            code = frame.f_code
            filename = code.co_filename
            if filename.startswith(ROOT) and code.co_name not in INLINED:
                calls += 1
                if (filename.startswith(TELEMETRY)
                        and frame.f_back.f_code in HOP):
                    hop_telemetry += 1

    sys.setprofile(count)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    passes = sum(switch.pipeline_passes for switch in switches) \
        - passes_before
    assert passes > 500 and not net.drop_counts
    return calls / passes, hop_telemetry / passes


@pytest.mark.parametrize("fabric", sorted(BUDGET))
def test_calls_per_pass_within_budget(fabric, python_kernel):
    measured, _ = profile_passes(fabric == "p4auth")
    assert measured <= BUDGET[fabric], (
        f"{fabric}: {measured:.2f} calls into repro per pipeline pass "
        f"(budget {BUDGET[fabric]})")


@pytest.mark.parametrize("fabric", sorted(BUDGET))
def test_hop_makes_no_telemetry_call_with_telemetry_off(fabric,
                                                       python_kernel):
    """No null-metric update in ``Pipeline.run``, ``process``, ``receive``
    or ``transmit``: the hop's handles are ``None`` and a stage runs
    bare.  With no-op handles the same traffic made 5.62 (plain) and 7.68
    (P4Auth) such calls per pass."""
    _, hop_telemetry = profile_passes(fabric == "p4auth")
    assert hop_telemetry == 0, (
        f"{fabric}: {hop_telemetry:.2f} calls per pass from the hop into "
        "repro.telemetry with telemetry off")
