"""Structured, virtual-time-stamped trace events with ring-buffer retention.

The tracer is the accountability record SDNsec argues for: every
observable the data plane or controller acts on (drops, tamper events,
key exchanges, alerts) becomes a :class:`TraceEvent` stamped with the
*simulator's virtual clock*, so two seeded runs of the same experiment
produce byte-identical JSONL dumps.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Dict, List, Optional


class TraceEvent:
    """One structured event: (virtual time, name, free-form fields)."""

    __slots__ = ("time", "name", "fields")

    def __init__(self, at: float, name: str, fields: Dict[str, object]):
        self.time = at
        self.name = name
        self.fields = fields

    def as_dict(self) -> Dict[str, object]:
        record = {"t": self.time, "event": self.name}
        record.update(self.fields)
        return record

    def to_json(self) -> str:
        # sort_keys + compact separators give a canonical, diffable line.
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def __repr__(self) -> str:
        return f"TraceEvent(t={self.time}, {self.name!r}, {self.fields})"


class Tracer:
    """Bounded event log; the oldest events are evicted when full."""

    enabled = True

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        #: Events are stamped 0.0 until :meth:`bind_clock`.
        self._clock: Callable[[], float] = lambda: 0.0
        self._events: deque = deque(maxlen=capacity)
        self.capacity = capacity
        self.emitted = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a time source (the simulator's clock)."""
        self._clock = clock

    def emit(self, name: str, **fields) -> None:
        """Record one event at the current (virtual) time."""
        self._events.append(TraceEvent(self._clock(), name, fields))
        self.emitted += 1

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring buffer by newer ones."""
        return self.emitted - len(self._events)

    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        """Retained events, oldest first; optionally filtered by name."""
        if name is None:
            return list(self._events)
        return [event for event in self._events if event.name == name]

    def to_jsonl(self) -> str:
        """All retained events as JSON Lines (one canonical line each)."""
        return "".join(event.to_json() + "\n" for event in self._events)

    def dump(self, path: str) -> int:
        """Write the JSONL export to a file; returns the event count."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return len(self._events)

    def __len__(self) -> int:
        return len(self._events)


class NullTracer:
    """Disabled tracer: every operation is a no-op, nothing is retained."""

    enabled = False
    capacity = 0
    emitted = 0
    evicted = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def emit(self, name: str, **fields) -> None:
        pass

    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        return []

    def to_jsonl(self) -> str:
        return ""

    def dump(self, path: str) -> int:
        with open(path, "w") as handle:
            handle.write("")
        return 0

    def __len__(self) -> int:
        return 0
