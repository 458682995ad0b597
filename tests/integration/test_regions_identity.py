"""The random-regular fabric builds the same world, byte for byte.

The golden fixture pins full experiment payloads (table3 full run, fig20
and cdp_batch_throughput short runs) plus a sha256 digest of every
switch's serialized C-DP P4Auth wire stream from a batched m=9
workload.  Any change to how :func:`repro.net.topology.random_regular_fabric`
orders its construction, or to what the stacks put on the wire, shows up
here as a diverged payload or digest.
"""

import hashlib
import json
import os

import pytest

from repro.core.wire import serialize_message
from repro.engine.runner import Runner
from repro.experiments.cdp_batch import (
    build_batch_deployment,
    run_batch_workload,
)
from tests.conftest import run_trial

FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "regions1_identity.json")


def load_fixture():
    with open(FIXTURE) as handle:
        return json.load(handle)


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("name", ["table3", "fig20",
                                  "cdp_batch_throughput"])
def test_experiment_payloads_byte_identical(name):
    fixture = load_fixture()["experiments"][name]
    run = Runner(workers=1).run(name, short=fixture["short"])
    by_id = {trial.id: trial for trial in run.trials}
    for golden in fixture["trials"]:
        trial = by_id[golden["id"]]
        # Results must match byte for byte (canonical JSON).
        assert canon(trial.result) == canon(golden["result"]), \
            f"{golden['id']}: result diverged from pre-refactor golden"
        # Params may have gained new axes since the fixture was
        # captured, but every pinned value must be unchanged.
        for key, value in golden["params"].items():
            assert trial.params[key] == value


def test_per_switch_wire_streams_byte_identical():
    """Every signed C-DP message, per switch, hashes to the golden
    digest — not just the aggregate counters."""
    golden = load_fixture()["wire_stream_sha256"]
    sim, net, stack, switches = build_batch_deployment("P4Auth", m=9,
                                                       seed=1)
    streams = {name: [] for name in switches}

    def make_tap(name):
        def tap(packet, direction):
            if direction == "c->dp" and packet.has("p4auth"):
                streams[name].append(serialize_message(packet))
            return packet
        return tap

    for name in switches:
        net.control_channels[name].add_tap(make_tap(name))
    result = run_batch_workload(sim, stack, switches, mode="batched",
                                requests_per_switch=4)
    assert result["completed"] == 36
    digests = {name: hashlib.sha256(b"".join(messages)).hexdigest()
               for name, messages in streams.items()}
    assert digests == golden


def test_table3_m25_live_counts_pinned():
    """The paper's Table III point, pinned."""
    result = run_trial("table3", m=25)
    assert (result["init_messages"], result["init_bytes"]) == (350, 9500)
    assert (result["update_messages"], result["update_bytes"]) == (200, 5400)
