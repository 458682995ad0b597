"""Fixed seed => identical counts and fingerprints; another seed =>
other inputs."""

from itertools import islice

import pytest

from bench import harness
from bench.workloads.cdp import request_stream
from bench.workloads.fwd import data_stream
from bench.workloads.serve import connection_streams


def once(name, seed, seconds):
    _measured, fingerprint, counts = harness._execute(
        harness.make(name), seed, seconds, traced=False)
    return fingerprint, counts


@pytest.mark.parametrize("name,seconds", [
    ("fwd_plain", 0.2), ("fwd_p4auth", 0.3), ("cdp_rw", 0.5)])
def test_same_seed_same_counts_and_fingerprint(name, seconds):
    first, second = once(name, 7, seconds), once(name, 7, seconds)
    assert first == second
    assert once(name, 8, seconds)[0] != first[0]


def test_another_seed_changes_the_generated_inputs():
    def head(stream):
        return list(islice(stream, 64))
    assert head(data_stream(1)) == head(data_stream(1))
    assert head(data_stream(1)) != head(data_stream(2))
    switches = [f"sw{i}" for i in range(10)]
    assert head(request_stream(1, switches)) == head(request_stream(1, switches))
    assert head(request_stream(1, switches)) != head(request_stream(2, switches))
    ops = [[stream.take(32) for stream in connection_streams(seed, 0.75)]
           for seed in (1, 1, 2)]
    assert ops[0] == ops[1] != ops[2]


def test_connections_own_disjoint_switches():
    streams = connection_streams(3, 1.0)
    owned = [set(stream.switches) for stream in streams]
    assert all(a.isdisjoint(b) for i, a in enumerate(owned)
               for b in owned[i + 1:])
    assert sum(len(s) for s in owned) == 100


def test_pinned_fingerprint_mismatch_fails_the_run(tmp_path, monkeypatch):
    from bench.common import GateFailure
    pins = tmp_path / "fingerprints.json"
    pins.write_text('{"cdp_rw": {"seed=1,seconds=2": "abc"}}')
    monkeypatch.setattr(harness, "FINGERPRINTS", pins)
    harness.check_fingerprint("cdp_rw", 1, 2.0, "abc")
    harness.check_fingerprint("cdp_rw", 2, 2.0, "anything")   # unpinned
    with pytest.raises(GateFailure):
        harness.check_fingerprint("cdp_rw", 1, 2.0, "def")
