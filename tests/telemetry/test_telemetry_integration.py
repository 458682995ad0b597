"""End-to-end: telemetry wired through a full experiment and the CLI.

The fig17 p4auth scenario exercises every instrumented layer at once:
links carry probes and data (per-link counters), the S1-S4 tamperer
corrupts probes (digest verify failures + pipeline drops), the
controller receives alerts (packet-in counters), and the KMP bootstrap
runs key exchanges (RTT histograms).
"""

import json

import pytest

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.telemetry import Telemetry
from tests.conftest import run_trial


@pytest.fixture(scope="module")
def instrumented_run():
    telemetry = Telemetry(enabled=True)
    result = run_trial("fig17", telemetry, mode="p4auth", duration_s=1.5)
    return telemetry, result


def test_per_link_counters_accumulate(instrumented_run):
    telemetry, _ = instrumented_run
    byte_metrics = telemetry.metrics.with_name("net_link_bytes_total")
    assert byte_metrics, "expected per-link byte counters"
    assert any(m.value > 0 for m in byte_metrics)
    # Every byte series has a matching packet series with the same labels.
    packet_keys = {m.labels
                   for m in telemetry.metrics.with_name(
                       "net_link_packets_total")}
    assert all(m.labels in packet_keys for m in byte_metrics)


def test_digest_verification_pass_and_fail(instrumented_run):
    telemetry, result = instrumented_run
    metrics = telemetry.metrics.with_name("p4auth_digest_verify_total")
    by_result = {}
    for metric in metrics:
        labels = dict(metric.labels)
        by_result[labels["result"]] = (
            by_result.get(labels["result"], 0) + metric.value)
    # Untampered probes verify; the S1-S4 tamperer forces failures.
    assert by_result.get("pass", 0) > 0
    assert by_result.get("fail", 0) > 0
    assert result["probes_tampered"] > 0


def test_pipeline_drops_have_named_reasons(instrumented_run):
    telemetry, result = instrumented_run
    drops = telemetry.metrics.with_name("dataplane_drop_total")
    assert drops
    for metric in drops:
        labels = dict(metric.labels)
        assert labels["reason"]  # never empty/unnamed
        assert labels["switch"]
    total = sum(m.value for m in drops)
    assert total >= result["probes_dropped_at_s1"] > 0


def test_trace_contains_verify_failures_with_virtual_time(instrumented_run):
    telemetry, _ = instrumented_run
    failures = telemetry.tracer.events("digest.verify_fail")
    assert failures
    for event in failures:
        assert event.time >= 0.0
        assert "switch" in event.fields
    # JSONL export parses line by line.
    lines = telemetry.tracer.to_jsonl().splitlines()
    assert len(lines) == len(telemetry.tracer)
    parsed = json.loads(lines[0])
    assert set(parsed) >= {"t", "event"}


def test_kmp_exchanges_recorded(instrumented_run):
    telemetry, _ = instrumented_run
    exchanges = telemetry.tracer.events("kmp.exchange")
    assert exchanges  # bootstrap_all ran key inits
    histograms = telemetry.metrics.with_name("kmp_rtt_seconds")
    assert sum(h.count for h in histograms) == len(exchanges)


def test_simulator_counters(instrumented_run):
    telemetry, _ = instrumented_run
    assert telemetry.metrics.value("sim_events_executed_total") > 0
    heap_gauge = telemetry.metrics.get("sim_heap_depth_high_water")
    assert heap_gauge is not None and heap_gauge.value >= 1


def test_p4auth_built_before_the_fabric_counts_into_it():
    """``Network.add_switch`` rebinds a standalone switch's telemetry
    after its P4Auth fragment bound the null one: the fragment's
    handles follow through the switch's ``on_telemetry_bound`` hook."""
    telemetry = Telemetry()
    network = Network(EventSimulator(telemetry=telemetry))
    switch = DataplaneSwitch("s1", num_ports=2)
    dataplane = P4AuthDataplane(switch, k_seed=0xBEE1).install()
    network.add_switch(switch)
    controller = P4AuthController(network)
    controller.provision(dataplane)
    controller.kmp.bootstrap_all()
    network.sim.run(until=1.0)
    assert telemetry.metrics.value(
        "p4auth_digest_verify_total", switch="s1", result="pass",
        channel="cdp") > 0


def test_disabled_run_records_nothing():
    telemetry = Telemetry(enabled=False)
    run_trial("fig17", telemetry, mode="p4auth", duration_s=0.5)
    assert len(telemetry.metrics) == 0
    assert len(telemetry.tracer) == 0


def _cli_fig17_p4auth(trace_dir):
    """`repro run fig17 --trace-dir`, narrowed to the p4auth trial."""
    from repro.__main__ import main

    return main(["run", "fig17", "--sweep", "mode=p4auth",
                 "--sweep", "duration_s=1.0", "--out-dir", "",
                 "--trace-dir", str(trace_dir)])


def test_cli_telemetry_subcommand(tmp_path, capsys):
    """The instrumented run is `repro run <spec> --trace-dir`: a JSONL
    trace plus a Prometheus dump per trial."""
    assert _cli_fig17_p4auth(tmp_path) == 0
    assert "fig17[duration_s=1.0,mode=p4auth]" in capsys.readouterr().out
    stem = "fig17.duration_s=1.0,mode=p4auth"
    # Prometheus dump includes the acceptance-criteria metric families.
    prom = (tmp_path / f"{stem}.prom").read_text()
    assert "repro_net_link_bytes_total" in prom
    assert "repro_p4auth_digest_verify_total" in prom
    assert "repro_dataplane_drop_total" in prom
    assert "sim_wall_seconds_total" not in prom
    # The JSONL trace landed on disk and parses.
    lines = (tmp_path / f"{stem}.jsonl").read_text().splitlines()
    assert lines
    assert all(json.loads(line)["event"] for line in lines)


def test_cli_prometheus_dump_is_byte_deterministic(tmp_path):
    for name in ("a", "b"):
        assert _cli_fig17_p4auth(tmp_path / name) == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert [name.rsplit(".", 1)[1] for name in names] == ["jsonl", "prom"]
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        assert first and first == (tmp_path / "b" / name).read_bytes()


def test_store_host_timings_stay_out_of_the_prometheus_dump(tmp_path):
    """The journal's fsync and warm-restart histograms read the host
    clock; the per-trial dump leaves them out like the simulator's."""
    from repro.engine.runner import Runner

    for name in ("a", "b"):
        Runner(trace_dir=str(tmp_path / name)).run(
            "controller_crash_recovery", short=True)
    (prom,) = [path.name for path in (tmp_path / "a").glob("*.prom")]
    first = (tmp_path / "a" / prom).read_text()
    assert "repro_store_journal_records_total" in first
    assert "store_fsync_seconds" not in first
    assert first == (tmp_path / "b" / prom).read_text()


def test_cli_telemetry_rejects_unknown_target(tmp_path, capsys):
    from repro.__main__ import main

    for argv in (["telemetry", "fig17"], ["chaos"],
                 ["run", "nope", "--trace-dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "Registered experiments" in capsys.readouterr().err
