"""``run_cli``: what a user types.

``python -m repro run persona_matrix --short --workers 1`` as a child:
interpreter start, catalog import, the ``engine`` runner, the artifact
write — and the *rejecting* paths (digest failure, replay reject, alert
limiter) that the honest-traffic workloads never take.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from bench.common import (
    ROOT,
    Measured,
    Slice,
    child_env,
    fingerprint,
    gate,
    python,
    scratch_dir,
    yardstick,
)

SPEC = "persona_matrix"
#: Host seconds one invocation takes on the 2-core reference box.
HOST_S_PER_INVOCATION = 7.0
INVOCATION_TIMEOUT_S = 150.0
PROBE_EVERY_S = 0.25
SETUP_SNIPPET = ("from repro.engine.registry import load_catalog; "
                 "load_catalog()")


def _reap(proc: subprocess.Popen, timeout_s: float
          ) -> Tuple[int, object, float]:
    """Wait for a child; returns (exit code, its own rusage, mean machine
    speed while it ran).

    ``wait4`` gives the CPU and peak RSS of that child alone, which
    ``RUSAGE_CHILDREN`` cannot once several have run.  The yardstick is
    read every :data:`PROBE_EVERY_S` on the child's core while waiting.
    """
    deadline = time.perf_counter() + timeout_s
    speeds = [yardstick()]
    next_probe = time.perf_counter() + PROBE_EVERY_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            speeds.append(yardstick())
            return proc.returncode, usage, statistics.fmean(speeds)
        now = time.perf_counter()
        if now > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError(f"child timed out after {timeout_s:.0f}s")
        if now >= next_probe:
            speeds.append(yardstick())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        else:
            time.sleep(0.005)


class CommandLine:
    name = "run_cli"
    op = "trials"
    in_process = False
    restarts = False
    trace_baseline = None

    def __init__(self):
        self.workdir: Optional[str] = None
        self.trials_fingerprints: List[str] = []
        self.trace_exports: List[dict] = []

    def measure_setup(self) -> float:
        """Interpreter start plus the catalog import, nothing run."""
        started = time.perf_counter()
        subprocess.run([python(), "-c", SETUP_SNIPPET], cwd=str(ROOT),
                       env=child_env(), check=True)
        return time.perf_counter() - started

    def setup(self, seed: int, seconds: float, traced: bool = False) -> None:
        self.workdir = scratch_dir("run_cli-")
        self.seed = seed
        self.traced = traced
        self.invocations = max(1, round(seconds / HOST_S_PER_INVOCATION))
        self.artifact: Optional[dict] = None

    def warmup(self) -> None:
        """Nothing to warm: every invocation pays its own cold start,
        which is what the user pays."""

    def _invoke(self, index: int) -> Tuple[Slice, float]:
        out_dir = os.path.join(self.workdir, f"out{index}")
        argv = ["run", SPEC, "--short", "--workers", "1",
                "--seed", str(self.seed), "--out-dir", out_dir]
        if self.traced:
            trace_path = os.path.join(self.workdir, f"trace{index}.json")
            command = [python(), str(ROOT / "bench" / "traced_entry.py"),
                       trace_path, *argv]
        else:
            command = [python(), "-m", "repro", *argv]
        log_path = os.path.join(self.workdir, f"stdout{index}.txt")
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(command, cwd=str(ROOT), env=child_env(),
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code, usage, speed = _reap(proc, INVOCATION_TIMEOUT_S)
            except BaseException:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                raise
        wall = time.perf_counter() - started
        if code != 0:
            with open(log_path, errors="replace") as log:
                tail = log.read()[-2000:]
            gate(False, f"`repro run {SPEC}` exited with {code}:\n{tail}")
        with open(os.path.join(out_dir, f"BENCH_{SPEC}.json")) as handle:
            self.artifact = json.load(handle)
        self.trials_fingerprints.append(fingerprint(self.artifact["trials"]))
        if self.traced:
            with open(trace_path) as handle:
                self.trace_exports.append(json.load(handle))
        return ((len(self.artifact["trials"]), wall,
                 usage.ru_utime + usage.ru_stime, speed),
                usage.ru_maxrss / 1024.0)

    def run(self) -> Measured:
        slices, peak = [], 0.0
        for index in range(self.invocations):
            piece, rss = self._invoke(index)
            slices.append(piece)
            peak = max(peak, rss)
        return Measured(phases=[slices], failed=0, peak_rss_mb=peak)

    def check(self) -> dict:
        gate(len(set(self.trials_fingerprints)) == 1,
             "two invocations with one seed wrote different `trials`")
        trials = self.artifact["trials"]
        forged = sum(t["result"]["forged_writes"] for t in trials)
        gate(forged == 0, f"{forged} forged register writes got through")
        gate(all(t["result"]["clean_write_ok"] for t in trials),
             "a clean write failed after an attack")
        return {"trials": trials}

    def counts(self) -> Dict[str, float]:
        results = [t["result"] for t in self.artifact["trials"]]
        return {
            "core.auth_dataplane.alerts_suppressed":
                sum(r["alerts_suppressed"] for r in results),
        }

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
