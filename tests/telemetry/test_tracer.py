"""Unit tests for the tracer and the Telemetry bundle."""

import json

import pytest

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.tracer import NullTracer, Tracer


class TestTracer:
    def test_emit_stamps_the_bound_clock(self):
        clock = {"now": 0.0}
        tracer = Tracer()
        tracer.bind_clock(lambda: clock["now"])
        tracer.emit("packet.drop", reason="link_down")
        clock["now"] = 1.5
        tracer.emit("link.up", link="s1:1-s2:1")
        events = tracer.events()
        assert [e.time for e in events] == [0.0, 1.5]
        assert events[0].fields == {"reason": "link_down"}

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.emit("tick", n=index)
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.evicted == 2
        assert [e.fields["n"] for e in tracer.events()] == [2, 3, 4]

    def test_filter_by_name(self):
        tracer = Tracer()
        tracer.emit("a")
        tracer.emit("b")
        tracer.emit("a")
        assert len(tracer.events("a")) == 2

    def test_jsonl_is_canonical_and_parseable(self):
        tracer = Tracer()
        tracer.bind_clock(lambda: 0.25)
        tracer.emit("digest.verify_fail", switch="s1", cause="mismatch")
        line = tracer.to_jsonl().strip()
        assert line == ('{"cause":"mismatch","event":"digest.verify_fail",'
                        '"switch":"s1","t":0.25}')
        assert json.loads(line)["switch"] == "s1"

    def test_dump_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("kmp.exchange", op="local_init")
        path = tmp_path / "trace.jsonl"
        assert tracer.dump(str(path)) == 1
        assert json.loads(path.read_text())["op"] == "local_init"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_null_tracer_is_inert(self, tmp_path):
        tracer = NullTracer()
        tracer.emit("anything", x=1)
        assert len(tracer) == 0
        assert tracer.events() == []
        assert tracer.to_jsonl() == ""
        path = tmp_path / "empty.jsonl"
        assert tracer.dump(str(path)) == 0
        assert path.read_text() == ""


class TestTelemetryBundle:
    def test_enabled_bundle_wires_both_surfaces(self):
        telemetry = Telemetry(enabled=True)
        assert telemetry.metrics.enabled
        assert telemetry.tracer.enabled
        telemetry.metrics.counter("x_total").inc()
        telemetry.tracer.emit("x")
        assert "repro_x_total 1" in telemetry.render_prometheus()
        assert len(telemetry.tracer) == 1

    def test_null_telemetry_is_shared_and_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert isinstance(NULL_TELEMETRY.tracer, NullTracer)
        NULL_TELEMETRY.metrics.counter("x_total").inc()
        assert len(NULL_TELEMETRY.metrics) == 0
