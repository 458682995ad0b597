"""The persona_matrix experiment: registration, determinism, invariants."""

import hashlib
import json

import pytest

from repro.attacks.personas import PERSONA_KINDS
from repro.engine import run_experiment
from repro.engine.canon import canonical_json
from repro.engine.registry import get_spec
from repro.experiments.persona_matrix import SYSTEMS, WATCHED_SIGNALS
from tests.conftest import run_trial

_CELL = dict(attack_rate_hz=400.0, duration_s=1.0, load_hz=60.0, seed=7)


def _cell(persona, system, **overrides):
    return run_trial("persona_matrix", persona=persona, system=system,
                     **{**_CELL, **overrides})

#: sha256 of the canonical JSON of the (kind, "hula") cell at ``_CELL``,
#: captured on the commit before personas became a kind table
#: (the ``test_event_order_pin.py`` pattern).  Update only for a change
#: that is *meant* to alter what a persona injects or when.
PINNED_HULA_CELL_SHA256 = {
    "switch-os-injector":
        "c6924bde2b2d5b2b7c3fff1d0acf34966fda02fcd21b9ced34f2964d31bb7006",
    "probe-mitm":
        "70810d65ec68a82e8f553cc0fa02f99feb8495b004abf23694af0d63ca03ff2e",
    "replay-flooder":
        "ddeb19b3c21a008b742df71c2228f1a9ea4daaf19fd73bbdb9c8a74e50da35f1",
    "rollover-racer":
        "f78756c97721ba1654503b0857987e7124114eb155c493e7992ba17ef9e2ef2c",
    "digest-bruteforcer":
        "907fc2c11567b7cc49eeff70e3707c5dd5a748e5d217db729326f63cc4b14af6",
    "dos-flooder":
        "9b3af669709ea551a08f7da9f34d2dad70a72f2c1fa05ea9636a4aa73dd25695",
}


class TestSpecRegistration:
    def test_registered_with_full_grid(self):
        spec = get_spec("persona_matrix")
        assert set(spec.grid["persona"]) == set(PERSONA_KINDS)
        assert set(spec.grid["system"]) == set(SYSTEMS)
        assert len(PERSONA_KINDS) >= 4 and len(SYSTEMS) >= 3

    def test_short_keeps_the_whole_matrix(self):
        """--short shrinks the rate axis, never the persona×system cover."""
        plans = get_spec("persona_matrix").expand(short=True)
        cells = {(p.params["persona"], p.params["system"]) for p in plans}
        assert len(cells) == len(PERSONA_KINDS) * len(SYSTEMS)
        rates = {p.params["attack_rate_hz"] for p in plans}
        assert len(rates) == 2  # below and above the DoS alert threshold


class TestTrialInvariants:
    @pytest.mark.parametrize("kind", PERSONA_KINDS)
    def test_hula_cell_is_pinned(self, kind):
        result = _cell(kind, "hula")
        digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
        assert digest == PINNED_HULA_CELL_SHA256[kind], (
            f"{kind} vs hula changed: {result['persona_outcome']}")

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="system"):
            _cell("dos-flooder", "bgp")

    def test_cell_is_deterministic_and_safe(self):
        """Same cell twice: identical result, no forged write, detected."""
        first = _cell("switch-os-injector", "hula")
        second = _cell("switch-os-injector", "hula")
        assert first == second
        assert first["detected"] is True
        assert first["detection_signal"] in WATCHED_SIGNALS
        assert first["detection_latency_s"] >= 0.0
        assert first["forged_writes"] == 0
        assert first["ground_truth_samples"] > 0
        assert first["clean_write_ok"] is True
        assert first["workload_packets"] > 0

    def test_dos_threshold_curve_brackets_the_limiter(self):
        """§VIII rate limiter: engaged at 400 Hz, quiet at 40 Hz."""
        low = _cell("dos-flooder", "routescout", attack_rate_hz=40.0)
        high = _cell("dos-flooder", "routescout")
        assert low["detected"] and high["detected"]
        assert not low["mitigation_engaged"]
        assert high["mitigation_engaged"]
        assert low["forged_writes"] == high["forged_writes"] == 0

    def test_probe_mitm_surface_asymmetry(self):
        """DP-DP MitM reaches HULA's probe path but not NetCache."""
        hula = _cell("probe-mitm", "hula")
        netcache = _cell("probe-mitm", "netcache")
        assert hula["detected"] is True
        assert hula["detection_signal"] == "digest_fail_dpdp"
        assert hula["persona_outcome"]["surface_reachable"] == 1.0
        assert netcache["detected"] is False
        assert netcache["persona_outcome"]["surface_reachable"] == 0.0
        assert netcache["forged_writes"] == 0


#: detection signal -> (trace event, its ``channel``; None: any).
SIGNAL_EVENTS = {
    "replays_detected": ("replay.reject", None),
    "digest_fail_cdp": ("digest.verify_fail", "cdp"),
    "digest_fail_dpdp": ("digest.verify_fail", "dpdp"),
}


class TestTrace:
    def test_each_detection_is_in_the_trial_trace(self, tmp_path):
        """The polled detector's first signal has its trace event between
        the persona's arming and the reported detection time."""
        run = run_experiment(
            "persona_matrix", short=True, trace_dir=str(tmp_path), workers=2,
            sweep={"system": ["hula"], "attack_rate_hz": [400.0],
                   "persona": ["replay-flooder", "probe-mitm",
                               "switch-os-injector"]})
        signals = set()
        for trial in run.trials:
            result = trial.result
            assert result["detected"], trial.id
            signals.add(result["detection_signal"])
            name, channel = SIGNAL_EVENTS[result["detection_signal"]]
            armed = result["persona_outcome"]["armed_at_s"]
            detected = armed + result["detection_latency_s"]
            stem = trial.id.replace("[", ".").replace("]", "")
            with open(tmp_path / f"{stem}.jsonl") as trace:
                events = [json.loads(line) for line in trace]
            assert any(
                event["event"] == name
                and channel in (None, event.get("channel"))
                and armed <= event["t"] <= detected + 1e-9
                for event in events), (trial.id, name, channel)
        assert signals == set(SIGNAL_EVENTS)
