"""Reproducibility: identical seeds yield bit-identical experiments.

Every stochastic element (traces, switch PRNGs, adversary PRNGs, event
ordering) is seeded, so a rerun must reproduce results exactly — the
property that makes every number in EXPERIMENTS.md checkable.  Every
spec's ``--short`` trials and claims are pinned by one digest each
(``tests/engine/test_catalog_digest.py``); this module keeps what that
digest does not see: the trace stream, and the seed as the randomness
root.
"""

from repro.net.trace import TraceGenerator
from repro.telemetry import Telemetry
from tests.conftest import run_trial


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


def test_different_seeds_differ():
    base, other = (run_trial("fig16", mode="baseline", duration_s=10.0,
                             seed=seed) for seed in (42, 43))
    assert base["packets_forwarded"] != other["packets_forwarded"]


def test_trace_generator_is_the_randomness_root():
    assert (TraceGenerator(seed=1).flow_list(2.0)[0].five_tuple
            == TraceGenerator(seed=1).flow_list(2.0)[0].five_tuple)
