"""Reproducibility: identical seeds yield bit-identical experiments.

Every stochastic element (traces, switch PRNGs, adversary PRNGs, event
ordering) is seeded, so a rerun must reproduce results exactly — the
property that makes every number in EXPERIMENTS.md checkable.
"""

from repro.net.trace import TraceGenerator
from repro.telemetry import Telemetry
from tests.conftest import run_trial


def test_routescout_bitwise_reproducible():
    first, second = (run_trial("fig16", mode="attack", duration_s=10.0,
                               attack_start_s=3.0) for _ in range(2))
    assert first["share_path1"] == second["share_path1"]
    assert first["split_history"] == second["split_history"]
    assert first["packets_forwarded"] == second["packets_forwarded"]


def test_hula_bitwise_reproducible():
    first, second = (run_trial("fig17", mode="p4auth", duration_s=1.5)
                     for _ in range(2))
    assert first["shares"] == second["shares"]
    assert first["alerts"] == second["alerts"]
    assert first["data_delivered"] == second["data_delivered"]


def test_kmp_rtts_reproducible():
    first, second = (run_trial("fig20", repeats=3) for _ in range(2))
    for op in ("local_init", "local_update", "port_init", "port_update"):
        assert first["rtts"][op] == second["rtts"][op]


def test_hula_telemetry_traces_byte_identical():
    """Two seeded runs emit byte-identical JSONL traces.

    Trace events carry only virtual time, so the full observability
    record — drops, digest failures, key exchanges — reproduces exactly.
    """
    def traced_run():
        telemetry = Telemetry(enabled=True)
        run_trial("fig17", telemetry, mode="p4auth", duration_s=1.5)
        return telemetry

    first, second = traced_run(), traced_run()
    assert len(first.tracer) > 0
    assert first.tracer.to_jsonl() == second.tracer.to_jsonl()


def test_hula_telemetry_metrics_reproducible_modulo_wall_clock():
    """Prometheus dumps match once host-time metrics are filtered out."""
    WALL_CLOCK = ("repro_sim_wall_seconds", "repro_profile_seconds")

    def virtual_lines(telemetry):
        return [line for line in telemetry.render_prometheus().splitlines()
                if not any(line.startswith(prefix) or
                           line.startswith(f"# TYPE {prefix}")
                           for prefix in WALL_CLOCK)]

    def traced_run():
        telemetry = Telemetry(enabled=True)
        run_trial("fig17", telemetry, mode="p4auth", duration_s=1.5)
        return telemetry

    assert virtual_lines(traced_run()) == virtual_lines(traced_run())


def test_different_seeds_differ():
    base, other = (run_trial("fig16", mode="baseline", duration_s=10.0,
                             seed=seed) for seed in (42, 43))
    assert base["packets_forwarded"] != other["packets_forwarded"]


def test_trace_generator_is_the_randomness_root():
    assert (TraceGenerator(seed=1).flow_list(2.0)[0].five_tuple
            == TraceGenerator(seed=1).flow_list(2.0)[0].five_tuple)
