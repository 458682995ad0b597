"""The Fig 18/19 comparison harness and jittered distributions."""

import pytest

from repro.engine.runner import run_experiment
from repro.runtime.comparison import STACKS, build_stack


def fig18(duration_s, jitter_fraction=0.0):
    """The Fig 18 matrix: ``{(stack, kind): trial result}``."""
    run = run_experiment("fig18", sweep={
        "duration_s": [duration_s], "jitter_fraction": [jitter_fraction],
        "include_samples": [True]})
    return {(t.params["stack"], t.params["kind"]): t.result
            for t in run.trials}


def test_unknown_stack_rejected():
    with pytest.raises(ValueError):
        build_stack("OpenFlow")


def test_all_three_stacks_build_and_serve():
    for name in STACKS:
        sim, stack = build_stack(name)
        results = []
        stack.write_register("s1", "target", 0, 0x7,
                             lambda ok, v: results.append(ok))
        sim.run(until=sim.now + 1.0)
        assert results == [True], name


def test_deterministic_costs_give_constant_rct():
    stats = fig18(1.0)[("DP-Reg-RW", "read")]
    assert stats["p5_rct_s"] == pytest.approx(stats["p95_rct_s"])


def test_jitter_spreads_the_distribution():
    stats = fig18(1.0, jitter_fraction=0.2)[("DP-Reg-RW", "read")]
    spread = stats["p95_rct_s"] - stats["p5_rct_s"]
    assert spread > 0.1 * stats["mean_rct_s"]


def test_jitter_preserves_ordering_of_means():
    table = fig18(2.0, jitter_fraction=0.15)
    assert (table[("DP-Reg-RW", "read")]["mean_rct_s"]
            < table[("P4Auth", "read")]["mean_rct_s"]
            < table[("P4Runtime", "read")]["mean_rct_s"] * 1.02)


def test_jitter_is_seeded_and_reproducible():
    first, second = (fig18(0.5, jitter_fraction=0.15)[("P4Auth", "read")]
                     for _ in range(2))
    assert first["rcts_s"] == second["rcts_s"]
