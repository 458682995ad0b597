"""Same-time events run in scheduling order — pinned, not just repeatable.

The determinism tests compare a run with itself, so a scheduler edit that
reorders simultaneous events *consistently* passes them and surfaces
three jobs later as a golden mismatch.  This pins the telemetry trace of
the smallest spec that floods probes, forwards data, bootstraps keys and
drops tampered packets (``fig17``, p4auth mode, one virtual second).
Update the hashes only for a change that is *meant* to alter event order
or the trace vocabulary.
"""

import hashlib

from repro.engine.runner import run_experiment

PINNED_SHA256 = {
    "jsonl": "ea01d63e7e7ddd46718a1704f855235ca75754f90b3aedd81ac1ba47464378db",
    "prom": "6bbd243eef74a24972f5b11bba7fed975405513c9709f2fac88962cfad4b9e4f",
}


def test_fig17_trace_bytes_are_pinned(tmp_path):
    run_experiment("fig17", sweep={"mode": ["p4auth"], "duration_s": [1.0]},
                   trace_dir=str(tmp_path))
    stem = "fig17.duration_s=1.0,mode=p4auth"
    for suffix, expected in PINNED_SHA256.items():
        data = (tmp_path / f"{stem}.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected, (
            f"{stem}.{suffix} changed: event order (or the trace "
            "vocabulary) is no longer what the goldens were cut from")
