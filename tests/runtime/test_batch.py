"""BatchController: windowing, ordering, coalescing, telemetry, loss."""

from __future__ import annotations

import pytest

from repro.core.wire import serialize_message
from repro.experiments.cdp_batch import (build_batch_deployment,
                                         run_batch_workload)
from repro.runtime.batch import BatchController
from repro.runtime.comparison import STACKS, build_stack
from repro.telemetry import Telemetry

from tests.conftest import Deployment


def _single_switch():
    return Deployment(num_switches=1, registers=[("demo", 64, 16)])


class TestWindowing:
    def test_rejects_nonpositive_window(self):
        dep = _single_switch()
        with pytest.raises(ValueError):
            BatchController(dep.controller, max_in_flight=0)

    def test_window_cap_respected(self):
        dep = _single_switch()
        batch = BatchController(dep.controller, max_in_flight=3)
        observed = []

        def on_done(ok, _value):
            assert ok
            observed.append(batch.in_flight("s1"))

        for i in range(10):
            batch.write_register("s1", "demo", i % 16, 100 + i, on_done)
        # Submission alone never exceeds the window.
        assert batch.in_flight("s1") == 3
        assert batch.queued() == 7
        assert batch.stats.in_flight_high_water == 3
        dep.run(5.0)
        assert batch.idle
        assert batch.stats.completed == 10
        # Every mid-run sample stayed within the cap too.
        assert max(observed) <= 3

    def test_window_one_degenerates_to_sequential(self):
        dep = _single_switch()
        batch = BatchController(dep.controller, max_in_flight=1)
        for i in range(5):
            batch.write_register("s1", "demo", 0, 200 + i)
        dep.run(5.0)
        assert batch.stats.in_flight_high_water == 1
        assert batch.stats.completed == 5

    def test_completion_order_matches_submission_order(self):
        dep = _single_switch()
        batch = BatchController(dep.controller, max_in_flight=4)
        done = []
        for i in range(12):
            batch.write_register("s1", "demo", 0, i,
                                 lambda ok, v, i=i: done.append((i, ok, v)))
        dep.run(5.0)
        assert [entry[0] for entry in done] == list(range(12))
        assert all(ok for _i, ok, _v in done)
        # FIFO writes: the register ends on the last submitted value.
        assert dep.switch("s1").registers.get("demo").read(0) == 11

    def test_read_callbacks_carry_values(self):
        dep = _single_switch()
        batch = BatchController(dep.controller, max_in_flight=2)
        for index in range(4):
            batch.write_register("s1", "demo", index, 0x50 + index)
        dep.run(2.0)
        values = {}
        for index in range(4):
            batch.read_register("s1", "demo", index,
                                lambda ok, v, i=index: values.setdefault(i, v))
        dep.run(2.0)
        assert values == {0: 0x50, 1: 0x51, 2: 0x52, 3: 0x53}


class TestCallbackIsolation:
    def test_raising_callback_does_not_stall_the_window_drain(self):
        """A completion callback that raises must not leak the exception
        into the simulator event loop or skip the pump: every request
        still queued behind that switch's window must complete."""
        dep = _single_switch()
        batch = BatchController(dep.controller, max_in_flight=2)
        done = []

        def bad_callback(ok, _value):
            raise RuntimeError("user callback bug")

        # The first two occupy the whole window; both callbacks raise.
        batch.write_register("s1", "demo", 0, 1, bad_callback)
        batch.write_register("s1", "demo", 0, 2, bad_callback)
        for i in range(6):
            batch.write_register("s1", "demo", 0, 10 + i,
                                 lambda ok, v, i=i: done.append((i, ok)))
        dep.run(5.0)
        # The queued requests behind the raising ones all completed...
        assert done == [(i, True) for i in range(6)]
        assert batch.idle
        assert batch.stats.completed == 8
        # ...and the failures were counted, not swallowed silently.
        assert batch.stats.callback_errors == 2

    def test_callback_errors_emit_telemetry(self):
        telemetry = Telemetry(enabled=True)
        sim, stack = build_stack("P4Auth", telemetry=telemetry)
        batch = BatchController(stack, max_in_flight=2)

        def bad_callback(ok, _value):
            raise ValueError("boom")

        batch.write_register("s1", "target", 0, 1, bad_callback)
        batch.write_register("s1", "target", 0, 2)
        sim.run(until=sim.now + 2.0)
        assert batch.stats.completed == 2
        assert telemetry.metrics.value("batch_callback_errors_total") == 1
        events = telemetry.tracer.events("batch.callback_error")
        assert len(events) == 1
        assert events[0].fields["error"] == "ValueError"

    def test_clean_callbacks_count_no_errors(self):
        dep = _single_switch()
        batch = BatchController(dep.controller, max_in_flight=2)
        batch.write_register("s1", "demo", 0, 7, lambda ok, v: None)
        dep.run(2.0)
        assert batch.stats.callback_errors == 0


class TestRefusedWork:
    """A bad op fails itself and nothing else: no stranded queue entry,
    no leaked window slot, no callback fired twice.  Both cases wedged
    the facade before (``queued() == 1`` / ``in_flight(sw) == 1`` for
    good, ``idle`` False forever)."""

    @staticmethod
    def _facade(stack_name):
        sim, _net, stack, switches = build_batch_deployment(stack_name, m=8)
        return sim, BatchController(stack, max_in_flight=2), switches

    @staticmethod
    def _follow_up_completes(sim, batch, switch):
        done = []
        batch.submit_many([
            ("write", switch, "target", i, 40 + i,
             lambda ok, value: done.append(ok)) for i in range(3)])
        sim.run()
        assert done == [True] * 3
        assert batch.idle and batch.in_flight(switch) == 0

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_unknown_kind_queues_nothing(self, stack_name):
        sim, batch, switches = self._facade(stack_name)
        fired = []
        with pytest.raises(ValueError, match="erase"):
            batch.submit_many([
                ("write", switches[0], "target", 0, 7,
                 lambda ok, value: fired.append(ok)),
                ("erase", switches[0], "target", 0, 0, None)])
        sim.run()
        # All or nothing: the write before the bad op was not taken.
        assert fired == [] and batch.stats.submitted == 0
        assert batch.queued() == 0 and batch.idle
        self._follow_up_completes(sim, batch, switches[0])

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_refused_request_many_dispatched_nothing(self, stack_name):
        """The contract the facade's release rests on, at the stack."""
        sim, _net, stack, switches = build_batch_deployment(stack_name, m=8)
        fired = []
        with pytest.raises(KeyError, match="nope"):
            stack.request_many(switches[0], [
                ("write", "target", 0, 7, lambda ok, v: fired.append(ok)),
                ("write", "nope", 0, 7, lambda ok, v: fired.append(ok))])
        assert stack.outstanding_count() == 0
        sim.run()
        assert fired == []

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_refused_burst_releases_its_window(self, stack_name):
        sim, batch, switches = self._facade(stack_name)
        switch, other = switches[:2]
        fired = []

        def record(tag):
            return lambda ok, value: fired.append((tag, ok, value))

        # Twice: two leaked slots would wedge the window of 2.
        for attempt in range(2):
            with pytest.raises(KeyError, match="nope"):
                batch.submit_many([
                    ("write", switch, "target", 0, 7, record("good")),
                    ("write", switch, "nope", 0, 7, record("bad")),
                    # Behind the refused burst, and on a switch pumped
                    # after it: neither may be stranded.
                    ("write", switch, "target", 1, 8, record("behind")),
                    ("write", other, "target", 2, 9, record("other"))])
            assert batch.in_flight(switch) == 1  # "behind" took the window
            sim.run()
            assert batch.idle and batch.in_flight(switch) == 0
        # The refused burst dispatched nothing, so both of its requests
        # fail, once each; everything else completes.
        assert sorted(fired) == sorted(2 * [
            ("good", False, 0), ("bad", False, 0),
            ("behind", True, 8), ("other", True, 9)])
        assert batch.stats.failed == 4 and batch.stats.completed == 8
        self._follow_up_completes(sim, batch, switch)


class TestAcrossStacks:
    @pytest.mark.parametrize("stack_name", STACKS)
    def test_batched_run_completes_on_every_stack(self, stack_name):
        sim, _net, stack, switches = build_batch_deployment(
            stack_name, m=6, degree=3, seed=2)
        result = run_batch_workload(sim, stack, switches, mode="batched",
                                    requests_per_switch=3, max_in_flight=4)
        assert result["completed"] == result["submitted"] == 18
        assert result["failed"] == 0
        assert result["leaked_in_flight"] == 0
        assert result["still_queued"] == 0

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_batched_beats_sequential(self, stack_name):
        seq_sim, _n1, seq_stack, seq_sw = build_batch_deployment(
            stack_name, m=6, degree=3, seed=2)
        seq = run_batch_workload(seq_sim, seq_stack, seq_sw,
                                 mode="sequential", requests_per_switch=3)
        bat_sim, _n2, bat_stack, bat_sw = build_batch_deployment(
            stack_name, m=6, degree=3, seed=2)
        bat = run_batch_workload(bat_sim, bat_stack, bat_sw,
                                 mode="batched", requests_per_switch=3,
                                 max_in_flight=4)
        assert bat["throughput_rps"] >= 3.0 * seq["throughput_rps"]


class TestLossyChannel:
    def test_every_request_reaches_a_terminal_outcome(self):
        sim, _net, stack, switches = build_batch_deployment(
            "P4Auth", m=6, degree=3, seed=5, request_timeout_s=0.05,
            loss_rate=0.3)
        result = run_batch_workload(sim, stack, switches, mode="batched",
                                    requests_per_switch=4, max_in_flight=4)
        assert result["completed"] + result["failed"] == result["submitted"]
        # Window slots must drain even when outcomes are failures.
        assert result["leaked_in_flight"] == 0
        assert result["still_queued"] == 0

    def test_heavy_loss_actually_abandons_requests(self):
        sim, _net, stack, switches = build_batch_deployment(
            "P4Auth", m=6, degree=3, seed=7, request_timeout_s=0.02,
            loss_rate=0.8)
        result = run_batch_workload(sim, stack, switches, mode="batched",
                                    requests_per_switch=4, max_in_flight=4)
        assert result["failed"] > 0
        assert result["completed"] + result["failed"] == result["submitted"]


class TestTelemetry:
    def test_batch_metrics_are_emitted(self):
        telemetry = Telemetry(enabled=True)
        sim, stack = build_stack("P4Auth", telemetry=telemetry)
        batch = BatchController(stack, max_in_flight=4)
        for i in range(10):
            batch.write_register("s1", "target", 0, i)
        sim.run(until=sim.now + 5.0)
        metrics = telemetry.metrics
        assert metrics.value("batch_requests_total") == 10
        assert metrics.value("batch_in_flight_requests") == 0  # drained
        burst = metrics.get("batch_burst_size")
        assert burst is not None and burst.count >= 1
        rct = metrics.get("batch_rct_seconds")
        assert rct is not None and rct.count == 10

    def test_disabled_telemetry_stays_silent(self):
        sim, stack = build_stack("P4Auth")
        batch = BatchController(stack, max_in_flight=2)
        batch.write_register("s1", "target", 0, 1)
        sim.run(until=sim.now + 2.0)
        assert batch.stats.completed == 1


class TestWireFormatIdentity:
    def test_batched_messages_are_byte_identical_to_sequential(self):
        """The facade changes scheduling only: the exact bytes each
        request puts on the control channel are those the sequential
        path would have sent (same seqs, same digests, same order on a
        FIFO channel)."""

        def capture(dep):
            wire = []

            def tap(packet, direction):
                if direction == "c->dp" and packet.has("p4auth"):
                    wire.append(serialize_message(packet))
                return packet

            dep.net.control_channels["s1"].add_tap(tap)
            return wire

        workload = [(i % 16, 0xC0DE + i) for i in range(8)]

        seq_dep = _single_switch()
        seq_wire = capture(seq_dep)
        state = {"next": 0}

        def issue():
            if state["next"] >= len(workload):
                return
            index, value = workload[state["next"]]
            state["next"] += 1
            seq_dep.controller.write_register("s1", "demo", index, value,
                                              lambda ok, v: issue())

        issue()
        seq_dep.run(5.0)

        bat_dep = _single_switch()
        bat_wire = capture(bat_dep)
        batch = BatchController(bat_dep.controller, max_in_flight=4)
        for index, value in workload:
            batch.write_register("s1", "demo", index, value)
        bat_dep.run(5.0)

        assert len(seq_wire) == len(bat_wire) == len(workload)
        assert seq_wire == bat_wire
