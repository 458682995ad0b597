"""Cost model: calibration invariants the benchmarks rely on."""

from repro.net.costs import CostModel


def test_defaults_are_positive():
    costs = CostModel()
    for name in ("cdp_one_way_s", "switch_fwd_s", "link_latency_s",
                 "host_fixed_s", "digest_op_s", "controller_digest_s",
                 "compose_read_s", "compose_write_s",
                 "p4runtime_overhead_s", "controller_proc_s"):
        assert getattr(costs, name) > 0


def test_fig19_ratio_anchor():
    """The compose asymmetry must keep P4Runtime's read/write throughput
    ratio near the paper's 1.7x (guards against calibration drift)."""
    costs = CostModel()
    transit = (costs.cdp_one_way_s * 2 + costs.switch_fwd_s
               + costs.controller_proc_s)
    read_rct = costs.compose_read_s + costs.p4runtime_overhead_s + transit
    write_rct = costs.compose_write_s + costs.p4runtime_overhead_s + transit
    assert 1.6 < write_rct / read_rct < 1.8


def test_fig21_anchor():
    """digest_op_s and host_fixed_s must keep the 2-hop overhead near
    0.95% and the 10-hop overhead near 5.9%."""
    costs = CostModel()

    def overhead(hops):
        base = (costs.host_fixed_s + hops * costs.switch_fwd_s
                + (hops + 1) * costs.link_latency_s)
        auth = 2 * (hops - 1) * costs.digest_op_s
        return auth / base * 100

    assert 0.8 < overhead(2) < 1.2
    assert 5.4 < overhead(10) < 6.4


def test_fig20_band_anchor():
    """Four C-DP exchanges must land key initialization in 1-2 ms."""
    costs = CostModel()
    assert 1e-3 < 4 * costs.cdp_one_way_s < 2e-3


def test_custom_model_accepted():
    costs = CostModel(cdp_one_way_s=1e-3)
    assert costs.cdp_one_way_s == 1e-3
