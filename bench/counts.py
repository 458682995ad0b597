"""Count metrics read from a deployment's public attributes.

Counts compare two versions of one program and omit waiting; for a fixed
seed they must repeat exactly (the few that depend on host timing when a
daemon serves two connections are listed in :data:`TIMING_DEPENDENT`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

#: On ``serve_*`` these follow how the two connections' requests happen to
#: interleave inside a shard step (and, for the journal, which buffered
#: records a SIGKILL caught unwritten: measured 2 records in 18 058), so
#: they are reported but not required to repeat.
TIMING_DEPENDENT = frozenset({
    "net.simulator.heap_high_water",
    "runtime.batch.in_flight_high_water",
    "service.daemon.rejected_503",
    "store.journal.records",
    "store.journal.bytes",
})


def deployment_counts(sims: Iterable, switches: Iterable,
                      dataplanes: Iterable = (), controllers: Iterable = (),
                      batches: Iterable = ()) -> Dict[str, float]:
    """Counts of one or more (sim, network, controller) deployments."""
    sims, switches = list(sims), list(switches)
    dataplanes, controllers = list(dataplanes), list(controllers)
    batches = list(batches)
    counts: Dict[str, float] = {
        "net.simulator.events": sum(s.events_executed for s in sims),
        "net.simulator.heap_high_water": max(
            (s.heap_depth_high_water for s in sims), default=0),
        "dataplane.switch.passes": sum(s.pipeline_passes for s in switches),
        "dataplane.switch.drops": sum(s.packets_dropped for s in switches),
        "crypto.extern.invocations": sum(s.hash.invocations
                                         for s in switches),
    }
    if dataplanes:
        stats = [dp.stats for dp in dataplanes]
        counts["core.auth_dataplane.digest_fails"] = sum(
            s.digest_fail_cdp + s.digest_fail_dpdp for s in stats)
        counts["core.auth_dataplane.alerts_suppressed"] = sum(
            s.alerts_suppressed for s in stats)
    if controllers:
        software = [c.digest for c in controllers]
        engines = [dp.digest for dp in dataplanes] + software
        lookups = sum(e.key_state_hits + e.key_state_misses for e in software)
        batched = sum(e.vector_messages + e.scalar_messages for e in software)
        counts.update({
            "core.digest.computed": sum(e.computed for e in engines),
            "core.digest.key_cache_hit_ratio":
                _ratio(sum(e.key_state_hits for e in software), lookups),
            "core.digest.vector_msg_share":
                _ratio(sum(e.vector_messages for e in software), batched),
            "core.controller.retries": sum(c.stats.request_retries
                                           for c in controllers),
        })
    if batches:
        counts["runtime.batch.in_flight_high_water"] = max(
            b.stats.in_flight_high_water for b in batches)
    return counts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def honest_load_violations(controller) -> Optional[str]:
    """Why a P4Auth deployment that only saw honest, fully delivered C-DP
    traffic is *not* clean, or None: sequence numbers must agree and no
    tamper indicator may have moved."""
    from repro.core.kmp import RegionalKeyAuthority
    authority = RegionalKeyAuthority("bench", controller)
    diverged = {sw: d for sw, d in authority.seq_divergence().items() if d}
    if diverged:
        return f"controller/data-plane sequence numbers disagree: {diverged}"
    indicators = authority.tamper_indicators()
    if any(indicators.values()):
        return f"digest failure / replay / alert under honest load: {indicators}"
    return None
