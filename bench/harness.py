"""Measure one workload: the untraced run (end-to-end metrics) and the
traced run (per-layer metrics).  ``bench/run.py`` is the command line
over these two functions."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from bench import spans
from bench.common import (
    ROOT,
    Measured,
    child_env,
    fingerprint,
    gate,
    python,
    yardstick,
)

WORKLOADS = ("fwd_plain", "fwd_p4auth", "cdp_rw", "serve_http",
             "serve_durable", "run_cli")
SETUP_REPS = 5
#: The traced run repeats the workload at this share of its work.
TRACED_SHARE = 0.25
FINGERPRINTS = ROOT / "bench" / "fingerprints.json"


def make(name: str):
    """A fresh workload object (imports ``repro``: fails without ``src/``)."""
    if name in ("fwd_plain", "fwd_p4auth"):
        from bench.workloads.fwd import Forwarding
        return Forwarding(name)
    if name == "cdp_rw":
        from bench.workloads.cdp import ControlPlane
        return ControlPlane()
    if name in ("serve_http", "serve_durable"):
        from bench.workloads.serve import Serving
        return Serving(name)
    if name == "run_cli":
        from bench.workloads.cli import CommandLine
        return CommandLine()
    raise KeyError(f"unknown workload {name!r} (have: {WORKLOADS})")


@dataclass
class Outcome:
    """One workload, one run: everything worth printing or comparing."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    #: Readings beside the metrics (sample counts, raw rates).
    notes: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_only(name: str, seed: int, seconds: float) -> None:
    """Child side of an in-process set-up sample: import, build, exit."""
    workload = make(name)
    workload.setup(seed, seconds)
    workload.close()


def _sample_setup(workload, seed: int, seconds: float) -> float:
    """One set-up, timed from outside and scaled to reference speed.

    An in-process workload sets up in a child interpreter so that every
    sample pays the imports; the child workloads time their own spawn.
    """
    before = yardstick()
    if not workload.in_process:
        elapsed = workload.measure_setup()
    else:
        started = time.perf_counter()
        subprocess.run(
            [python(), str(ROOT / "bench" / "run.py"), "--setup-only",
             workload.name, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=str(ROOT), env=child_env(), check=True)
        elapsed = time.perf_counter() - started
    return elapsed * (before + yardstick()) / 2


# ---------------------------------------------------------------------------
# the two runs
# ---------------------------------------------------------------------------

def _execute(workload, seed: int, seconds: float, traced: bool,
             tracer: Optional[spans.Tracer] = None):
    """setup -> warm-up -> timed run -> gates -> counts -> teardown."""
    try:
        workload.setup(seed, seconds, traced=traced)
        workload.warmup()
        if tracer is not None:
            tracer.reset()
            tracer.enabled = True
        try:
            measured = workload.run()
        finally:
            if tracer is not None:
                tracer.enabled = False
        document = workload.check()
        counts = workload.counts()
    finally:
        workload.close()
    return measured, fingerprint(document), counts


def measure(name: str, seed: int, seconds: float) -> Outcome:
    """The untraced run: every end-to-end metric of one workload."""
    workload = make(name)
    # A durable daemon's set-up is its warm restart on the state it left,
    # which its own run measures three times.
    setups = [] if workload.restarts else [
        _sample_setup(make(name), seed, seconds) for _ in range(SETUP_REPS)]
    measured, print_, counts = _execute(workload, seed, seconds,
                                        traced=False)
    check_fingerprint(name, seed, seconds, print_)
    setup_s = (measured.extras["restart_s"] if workload.restarts
               else statistics.median(setups))
    outcome = Outcome(name, seed, attempted=measured.ops,
                      failed=measured.failed, fingerprint=print_,
                      counts=counts)
    outcome.metrics = {
        "setup_s": setup_s,
        "ops_per_s": measured.ops_per_s,
        "cpu_us_per_op": measured.cpu_us_per_op,
        "peak_rss_mb": measured.peak_rss_mb,
    }
    outcome.notes = _notes(measured)
    return outcome


def _notes(measured: Measured) -> Dict[str, object]:
    notes: Dict[str, object] = {
        "slices": len(measured.slices),
        "wall_s": measured.wall_s,
        "cpu_s": measured.cpu_s,
        "raw_ops_per_s": measured.raw_ops_per_s,
        "machine_speed": measured.speed,
    }
    notes.update(measured.extras)
    return notes


def measure_traced(name: str, seed: int, seconds: float,
                   trace_path: Optional[str] = None) -> Outcome:
    """The traced run: every per-layer metric of one workload.

    An untraced pass at the traced run's size comes first — it gives the
    wall the overhead is a ratio of, and the numbers (latency, phase
    rates, restart time) that must never be read under tracing.
    """
    from bench import probes
    quarter = seconds * TRACED_SHARE
    plain, plain_print, counts = _execute(make(name), seed, quarter,
                                          traced=False)

    tracer = spans.Tracer()
    workload = make(name)
    in_process = workload.in_process
    if in_process:
        spans.install(tracer)
    try:
        traced, traced_print, traced_counts = _execute(
            workload, seed, quarter, traced=True,
            tracer=tracer if in_process else None)
    finally:
        if in_process:
            spans.uninstall()
    gate(traced_print == plain_print,
         "tracing changed the workload's virtual-time results")
    check_fingerprint(name, seed, quarter, plain_print)
    if not in_process:
        inside = _fold_child_traces(tracer, workload)
        for violation in inside.get("violations", []):
            gate(False, f"inside the traced daemon: {violation}")
        counts = {**inside.get("counts", {}), **counts}
    else:
        gate(traced_counts == counts, "tracing changed a count metric")

    plain_wall = plain.extras.get("region_wall_s", plain.wall_s)
    traced_wall = traced.extras.get("region_wall_s", traced.wall_s)
    outcome = Outcome(name, seed, attempted=plain.ops, failed=plain.failed,
                      fingerprint=plain_print, counts=counts)
    metrics = outcome.metrics
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s(layer) * traced.speed
        metrics[f"{layer}.calls"] = tracer.calls(layer)
    metrics["bench.trace_overhead"] = \
        (traced_wall * traced.speed) / (plain_wall * plain.speed)
    metrics["bench.trace_coverage"] = tracer.covered_s() / traced_wall
    metrics["bench.loadgen_cpu_share"] = plain.extras.get(
        "loadgen_cpu_share", tracer.self_s("bench") / traced_wall)
    metrics["bench.failed_share"] = plain.failed / plain.ops
    metrics["bench.wall_s"] = plain_wall * plain.speed
    metrics["service.single_ops_per_s"] = plain.extras.get(
        "single_ops_per_s", 0.0)
    metrics["service.batch_ops_per_s"] = plain.extras.get(
        "batch_ops_per_s", 0.0)
    metrics["service.lat_p50_ms"] = plain.extras.get("lat_p50_ms", 0.0)
    metrics["service.lat_p99_ms"] = plain.extras.get("lat_p99_ms", 0.0)
    metrics["store.restart_s"] = plain.extras.get("restart_s", 0.0)
    metrics.update(probes.run_all())
    outcome.notes = _notes(plain)
    outcome.notes["spans_opened"] = tracer.opened
    if trace_path is not None:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.write_jsonl(trace_path)
        outcome.notes["trace_file"] = trace_path
    return outcome


def _fold_child_traces(tracer: spans.Tracer, workload) -> dict:
    """Fold a child workload's tracer exports into ``tracer``; returns the
    last export's view from inside the process (counts, violations).

    A daemon's first dump (taken when the timed region starts) is the
    baseline of its first incarnation; every later export closes an
    incarnation, and a respawned daemon starts from zero inside the region.
    """
    if workload.trace_baseline is not None:
        tracer.merge(workload.trace_baseline, sign=-1)
    for export in workload.trace_exports:
        tracer.merge(export)
    return workload.trace_exports[-1] if workload.trace_exports else {}


# ---------------------------------------------------------------------------
# pinned fingerprints
# ---------------------------------------------------------------------------

def _fingerprint_key(seed: int, seconds: float) -> str:
    return f"seed={seed},seconds={seconds:g}"


def check_fingerprint(name: str, seed: int, seconds: float,
                      found: str) -> None:
    """Fail the run if this (workload, seed, size) is pinned to another
    fingerprint: a speed-up must leave every simulated statistic as it was.
    Unpinned combinations pass; ``--pin`` records them."""
    with open(FINGERPRINTS) as handle:
        pinned = json.load(handle)
    expected = pinned.get(name, {}).get(_fingerprint_key(seed, seconds))
    gate(expected is None or expected == found,
         f"{name}: fingerprint {found[:16]}… differs from the pinned "
         f"{str(expected)[:16]}… for {_fingerprint_key(seed, seconds)}")


def pin_fingerprint(name: str, seed: int, seconds: float, found: str) -> None:
    with open(FINGERPRINTS) as handle:
        pinned = json.load(handle)
    pinned.setdefault(name, {})[_fingerprint_key(seed, seconds)] = found
    with open(FINGERPRINTS, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
