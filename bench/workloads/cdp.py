"""``cdp_rw``: batched authenticated register traffic, no HTTP, no store.

The controller-side mirror of ``fwd_plain``: ``crypto``,
``core.controller``, ``core.wire`` and ``runtime.batch`` do the work and
forwarding is idle.  Reads beside writes, so a gain on one C-DP message
shape that costs the other shows.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.experiments.cdp_batch import build_batch_deployment
from repro.runtime.batch import BatchController

from bench import spans
from bench.common import Measured, SliceClock, gate, self_peak_rss_mb
from bench.counts import deployment_counts, honest_load_violations

M = 100
MAX_IN_FLIGHT = 8
SLOTS = 16
REGISTER = "target"
#: Requests handed to one ``submit_many`` call.
CHUNK = 400
#: Requests one host second buys on the 2-core reference box.
REQUESTS_PER_HOST_S = 1800
WARMUP_SHARE = 0.05

Op = Tuple[str, str, int, int]  # kind, switch, slot, value


def request_stream(seed: int, switches: List[str]) -> Iterator[Op]:
    """The seeded inputs: 50 % reads / 50 % writes over 16 slots."""
    rng = random.Random(seed)
    while True:
        kind = "write" if rng.random() < 0.5 else "read"
        yield (kind, rng.choice(switches), rng.randrange(SLOTS),
               rng.getrandbits(48) if kind == "write" else 0)


class ControlPlane:
    name = "cdp_rw"
    op = "C-DP requests"
    in_process = True
    restarts = False

    def setup(self, seed: int, seconds: float, traced: bool = False) -> None:
        self.sim, self.net, self.stack, self.switches = \
            build_batch_deployment("P4Auth", m=M, max_in_flight=MAX_IN_FLIGHT)
        self.batch = BatchController(self.stack, max_in_flight=MAX_IN_FLIGHT)
        self.stream = request_stream(seed, self.switches)
        timed = int(seconds * REQUESTS_PER_HOST_S)
        self.timed_chunks = max(1, round(timed / CHUNK))
        self.warm_requests = max(1, int(WARMUP_SHARE * timed))
        #: What the generator wrote last, per (switch, slot).
        self.model: Dict[Tuple[str, int], int] = {}
        self.completed = 0
        self.failed = 0
        self.wrong_reads = 0
        # In a traced run the generator's own work is its own layer.
        self._generate = spans.span_fn(self._generate, "loadgen.generate",
                                       "bench")
        self._done = spans.span_fn(self._done, "loadgen.done", "bench")

    def _submit(self, count: int) -> None:
        self.batch.submit_many(self._generate(count))
        self.sim.run()

    def _generate(self, count: int) -> list:
        ops = []
        done = self._done
        for _ in range(count):
            kind, switch, slot, value = next(self.stream)
            if kind == "write":
                self.model[(switch, slot)] = value
                expect = None
            else:
                # Per-switch FIFO: the read sees every write queued so far.
                expect = self.model.get((switch, slot), 0)
            ops.append((kind, switch, REGISTER, slot, value,
                        lambda ok, got, expect=expect: done(ok, got, expect)))
        return ops

    def _done(self, ok: bool, got: int, expect) -> None:
        self.completed += 1
        if not ok:
            self.failed += 1
        elif expect is not None and got != expect:
            self.wrong_reads += 1

    def warmup(self) -> None:
        self._submit(self.warm_requests)

    def run(self) -> Measured:
        done_before, failed_before = self.completed, self.failed
        clock = SliceClock()
        for _ in range(self.timed_chunks):
            self._submit(CHUNK)
            clock.cut(CHUNK)
        submitted = self.timed_chunks * CHUNK
        # A request with no terminal outcome counts as failed.
        missing = submitted - (self.completed - done_before)
        return Measured(phases=[clock.slices],
                        failed=self.failed - failed_before + missing,
                        peak_rss_mb=self_peak_rss_mb())

    def check(self) -> dict:
        gate(self.batch.idle, "requests still queued or in flight")
        gate(self.failed == 0, f"{self.failed} requests failed")
        gate(self.wrong_reads == 0,
             f"{self.wrong_reads} reads returned a value never written there")
        end_state = {}
        for (switch, slot), value in sorted(self.model.items()):
            actual = self.net.switch(switch).registers.get(REGISTER).read(slot)
            gate(actual == value,
                 f"{switch}[{slot}] ends at {actual:#x}, generator wrote "
                 f"{value:#x} last (forged or lost write)")
            end_state[f"{switch}/{slot}"] = actual
        violation = honest_load_violations(self.stack)
        gate(violation is None, str(violation))
        samples = self.batch.stats.samples
        return {
            "completed": self.completed,
            "end_state": end_state,
            "acks": self.stack.stats.acks_received,
            "rct_sum": repr(round(sum(s.rct_s for s in samples), 9)),
            "virtual_now": repr(round(self.sim.now, 9)),
        }

    def counts(self) -> Dict[str, float]:
        return deployment_counts(
            [self.sim], [self.net.switch(name) for name in self.switches],
            self.stack.dataplanes.values(), [self.stack], [self.batch])

    def close(self) -> None:
        pass
