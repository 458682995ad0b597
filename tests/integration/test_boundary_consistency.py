"""Boundary consistency under kmp-blackout chaos.

The fleet-scale acceptance story is easy when everything works; this is
the hostile version.  Every region-0 *boundary* switch loses its control
channel for the duration of a coordinated fleet rollover:

- the rollover must still *resolve* (bounded KMP retries abandon the
  blacked-out ops — a dead management link cannot hang the fleet);
- the two-version invariant must hold at every lockstep barrier — the
  blacked-out switches stay one rollover epoch behind their cross-region
  neighbours, never more;
- no forgery evidence may appear (a blackout drops messages, it does not
  sign them);
- after the partition heals, one regional re-roll catches the stragglers
  up and authenticated writes across the boundary succeed with exact
  sequence agreement.
"""

import pytest

from repro.experiments.fleet_scale import build_fleet_deployment
from repro.faults import ChannelBlackout, FaultInjector, FaultPlan

M, REGIONS, DEGREE, SEED = 20, 2, 4, 1
ROUND_DEADLINE_S = 30.0


@pytest.fixture
def fleet():
    world, extras, hier, controllers = build_fleet_deployment(
        M, REGIONS, degree=DEGREE, seed=SEED)
    bootstrap = hier.bootstrap_fleet(deadline_s=ROUND_DEADLINE_S)
    assert bootstrap["converged"] and not bootstrap["failed"]
    return world, extras, hier, controllers


def r0_boundary_switches(world):
    switches = set()
    for link in world.boundary_links:
        for region_id, switch in ((link.region_a, link.switch_a),
                                  (link.region_b, link.switch_b)):
            if region_id == "r0":
                switches.add(switch)
    return sorted(switches)


def test_rollover_survives_boundary_blackout(fleet):
    world, _extras, hier, controllers = fleet
    victims = r0_boundary_switches(world)
    assert victims, "fabric must have r0 boundary switches"

    # Black out the victims' control channels for a window that outlasts
    # the KMP's full retry budget (3 attempts, <0.2s virtual), so every
    # op issued into it is *abandoned*, not delayed.
    start = world.now
    plan = FaultPlan(seed=SEED, blackouts=[
        ChannelBlackout(switch, start_s=start, end_s=start + 2.0)
        for switch in victims])
    injector = FaultInjector(world.region("r0").net, plan).arm()

    rollover = hier.rollover_fleet(deadline_s=ROUND_DEADLINE_S)

    # Resolved, not hung: the round converged even though the blacked-out
    # switches' local/port updates were abandoned.
    assert rollover["converged"]
    assert rollover["failed"] > 0
    assert injector.stats.count("blackout") > 0

    # The two-version invariant held at every barrier of the round and
    # still holds now: victims sit exactly one epoch behind.
    assert rollover["boundary_violations"] == 0
    assert hier.check_two_version_invariant() == []
    for switch in victims:
        assert controllers["r0"].kmp.rollover_epoch(switch) == 0
    for switch in world.region("r1").switches:
        assert controllers["r1"].kmp.rollover_epoch(switch) == 1

    # A blackout drops messages; it must not manufacture forgery
    # evidence.  (seq divergence may be positive — abandoned controller
    # sends consumed seqs the DP never saw — but never negative.)
    report = hier.consistency_report()
    assert report["seq_divergence_min"] >= 0

    # --- partition heals -------------------------------------------------
    injector.disarm()

    # One *regional* re-roll catches region 0 up.  (A second fleet-wide
    # round would transiently put healthy epoch-2 switches across a
    # boundary from epoch-0 stragglers — gap 2 — which is exactly what
    # the invariant forbids; recovery is per-region by design.)
    done = []
    hier.authorities["r0"].rollover(on_done=done.append)
    assert world.run_until(lambda: len(done) == 1,
                           deadline=world.now + ROUND_DEADLINE_S)
    assert done[0].failed == 0
    assert hier.check_two_version_invariant() == []
    for switch in victims:
        assert controllers["r0"].kmp.rollover_epoch(switch) == 1
    assert all(gap["gap"] <= 1 for gap in hier.boundary_epoch_gaps())

    # Authenticated writes across the healed boundary, under the rolled
    # keys: all verified, exact reg-op sequence agreement, no mailbox
    # leak.
    state = {"ok": 0, "failed": 0}

    def on_write(ok, _value):
        state["ok" if ok else "failed"] += 1

    boundary = sorted({(link.region_a, link.switch_a)
                       for link in world.boundary_links}
                      | {(link.region_b, link.switch_b)
                         for link in world.boundary_links})
    for region_id, switch in boundary:
        controllers[region_id].write_register(switch, "target", 0,
                                              0xBEEF, on_write)
    world.run_until(lambda: world.pending() == 0,
                    deadline=world.now + 1.0)
    assert state == {"ok": len(boundary), "failed": 0}
    divergence = hier.seq_divergence()
    assert all(divergence[switch] == 0 for _region, switch in boundary)
    report = hier.consistency_report()
    assert report["seq_divergence_min"] >= 0
    assert not any(report["tamper_indicators"].values())
    assert world.mailbox.posted == world.mailbox.delivered


def test_clean_fleet_matches_chaos_free_baseline(fleet):
    """Same fleet, no injector: the baseline the chaos run degrades
    from.  Zero failures, zero gap everywhere, divergence exactly 0 on
    boundary switches after a write round."""
    world, _extras, hier, controllers = fleet
    rollover = hier.rollover_fleet(deadline_s=ROUND_DEADLINE_S)
    assert rollover["converged"] and not rollover["failed"]
    assert rollover["boundary_violations"] == 0
    assert all(gap["gap"] == 0 for gap in hier.boundary_epoch_gaps())
    state = {"ok": 0, "failed": 0}
    for link in world.boundary_links:
        controllers[link.region_a].write_register(
            link.switch_a, "target", 0, 0xFEED,
            lambda ok, _v: state.__setitem__(
                "ok" if ok else "failed", state["ok" if ok else "failed"] + 1))
    world.run_until(lambda: world.pending() == 0,
                    deadline=world.now + 1.0)
    assert state["failed"] == 0 and state["ok"] == len(world.boundary_links)
