"""Synthetic trace generator: reproducibility and distribution shape."""

import math

import pytest

from repro.net import trace
from repro.net.trace import Flow, TraceGenerator


def flow_list(duration_s, **kwargs):
    return list(TraceGenerator(**kwargs).flows(duration_s))


def five_tuple(flow):
    return (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
            flow.protocol)


def test_reproducible_given_seed():
    a = flow_list(5.0, seed=7)
    b = flow_list(5.0, seed=7)
    assert a == b


def test_different_seeds_differ():
    a = flow_list(5.0, seed=1)
    b = flow_list(5.0, seed=2)
    assert five_tuple(a[0]) != five_tuple(b[0]) or \
           a[0].size_bytes != b[0].size_bytes


def test_flows_time_ordered_and_bounded():
    flows = flow_list(10.0, seed=3)
    times = [f.start_time for f in flows]
    assert times == sorted(times)
    assert all(0 <= t < 10.0 for t in times)


def test_arrival_rate_approximate():
    flows = flow_list(30.0, seed=5, arrival_rate_hz=100.0)
    rate = len(flows) / 30.0
    assert 70 < rate < 130


def test_sizes_heavy_tailed():
    flows = flow_list(20.0, seed=9, arrival_rate_hz=500.0)
    sizes = sorted(f.size_bytes for f in flows)
    median = sizes[len(sizes) // 2]
    p99 = sizes[int(len(sizes) * 0.99)]
    # Heavy tail: the 99th percentile dwarfs the median.
    assert p99 > 10 * median
    assert all(s >= 1200 for s in sizes)


def test_size_cap_respected(monkeypatch):
    monkeypatch.setattr(trace, "MAX_FLOW_BYTES", 10_000)
    flows = flow_list(20.0, seed=1)
    assert max(f.size_bytes for f in flows) == 10_000


def test_packet_count():
    flow = Flow(1, 0.0, 4500, 0, 0, 0, 0)
    assert flow.packet_count() == 3
    assert Flow(1, 0.0, 1, 0, 0, 0, 0).packet_count() == 1


def test_five_tuple_fields():
    flow = flow_list(1.0, seed=1)[0]
    src, dst, sport, dport, proto = five_tuple(flow)
    assert 0x0A000000 <= src <= 0x0A00FFFF
    assert 0xC0A80000 <= dst <= 0xC0A8FFFF
    assert 1024 <= sport < 1024 + (1 << 14)
    assert dport in (80, 443, 8080, 53)
    assert proto == 6


def test_invalid_params():
    with pytest.raises(ValueError):
        TraceGenerator(arrival_rate_hz=0)
