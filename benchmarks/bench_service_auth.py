"""Service token cost does not scale with the pure-Python kernel.

``RequestAuthenticator.verify`` runs over ``method\\npath\\body`` of every
authenticated request before the daemon can answer, so its cost per body
byte is paid by every ``/v1/batch`` and by any unauthenticated client
that posts a large body.  HMAC-SHA256 from the stdlib runs in C: a
32-op batch body (~2.6 KB) costs well under 4x a single-op body (~80 B).
A pure-Python HalfSipHash token measures 28-38x.  A ratio in one
process holds across hosts where an absolute would not.

It guards the property, not the claim: what it buys end to end is
``serve_http``'s ``ops_per_s`` in ``bench/run.py``.
"""

import json

from benchmarks.conftest import best_seconds_per_call
from repro.service.auth import RequestAuthenticator

#: Batch body over single-op body, at most.
RATIO_CEILING = 4.0
REPEATS, CALLS = 7, 2000


def _op(index: int) -> dict:
    return {"op": "write", "switch": f"sw{index}", "register": "target",
            "index": index % 16, "value": 0xC0FFEE + index}


def test_batch_verify_costs_a_small_multiple_of_single(report):
    auth = RequestAuthenticator("bench-secret")
    single = json.dumps(_op(0), sort_keys=True).encode()
    batch = json.dumps({"ops": [_op(i) for i in range(32)]},
                       sort_keys=True).encode()
    assert 60 <= len(single) <= 120 and 2000 <= len(batch) <= 3200

    def cost(path: str, body: bytes) -> float:
        token = auth.token("POST", path, body)
        assert auth.verify("POST", path, body, token)
        return 1e6 * best_seconds_per_call(
            lambda: auth.verify("POST", path, body, token), CALLS, REPEATS)

    single_us, batch_us = cost("/v1/write", single), cost("/v1/batch", batch)
    ratio = batch_us / single_us
    report(f"RequestAuthenticator.verify: {len(single)} B {single_us:.2f} us, "
           f"{len(batch)} B {batch_us:.2f} us, {ratio:.2f}x "
           f"(ceiling: {RATIO_CEILING}x)")
    assert ratio < RATIO_CEILING, (
        f"verify on a 32-op batch body costs {ratio:.2f}x a single-op body "
        f"(ceiling {RATIO_CEILING}x): the token is hashed in Python again")
