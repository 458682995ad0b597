"""Helpers for the host-time gates in ``benchmarks/``.

``report`` prints a gate's measured numbers with capture disabled, so
``pytest benchmarks/`` always shows them next to the verdict (even
under fd-level capture).
"""

import time

import pytest


def best_seconds_per_call(fn, calls: int, repeats: int) -> float:
    """Seconds per ``fn()``: the fastest of ``repeats`` timed loops of
    ``calls`` calls (the minimum is the run least disturbed by the host)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / calls


@pytest.fixture
def report(capsys):
    def _report(text: str) -> None:
        with capsys.disabled():
            print("\n" + text, flush=True)
    return _report
