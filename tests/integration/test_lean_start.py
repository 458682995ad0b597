"""A start loads what the command uses: no numpy, no networkx.

Time from "process started" to "first authenticated answer" is time a
tampered register goes unanswered, and until PR 21 half of it was
importing two libraries no served request touches.  Each case runs in a
fresh interpreter (``sys.modules`` of the test process proves nothing)
and ends by printing which of the two modules it loaded.  The vector
digest lane is plain integers since PR 22, so its case prints every
module it loaded from a ``site-packages`` directory instead.
"""

from __future__ import annotations

import pytest

REPORT = """
import json, sys
print(json.dumps(sorted({"numpy", "networkx"} & set(sys.modules))))
"""

CATALOG = """
from repro.engine.registry import all_specs, load_catalog
load_catalog()
assert len(all_specs()) >= 20
"""

SERVICE = """
import repro.service
"""

FIG3 = """
from repro.net.topology import hula_fig3_topology
net, extras = hula_fig3_topology()
assert len(net.links) == 8
"""

# The benchmark's ``cdp_rw`` shape: the m=100 random-regular fleet (the
# one run path networkx used to sit on) and one 400-request burst.
FLEET = """
from repro.experiments.cdp_batch import build_batch_deployment
from repro.runtime.batch import BatchController
sim, net, stack, switches = build_batch_deployment("P4Auth", m=100)
done = []
BatchController(stack).submit_many([
    ("write" if i % 2 else "read", switches[i % 100], "target", i % 16, i,
     lambda ok, got: done.append(ok)) for i in range(400)])
sim.run()
assert done == [True] * 400, done.count(True)
"""

# The first vector batch loads nothing (it was where numpy loaded), and
# it changes no tag.
VECTOR = """
import json, sys
before = set(sys.modules)
from repro.core.constants import P4AUTH
from repro.core.digest import DigestEngine
from repro.core.messages import build_reg_write_request

def batch():
    return [build_reg_write_request(1, i % 16, 0xBE00 + i, 1 + i)
            for i in range(DigestEngine.VECTOR_THRESHOLD)]

def tags(engine):
    return [p.get(P4AUTH)["digest"] for p in engine.sign_many(0xA5A5, batch())]

scalar = [DigestEngine().compute(0xA5A5, p) for p in batch()]
engine = DigestEngine()
assert tags(engine) == scalar and len(set(scalar)) == len(scalar)
assert engine.vector_messages == DigestEngine.VECTOR_THRESHOLD
print(json.dumps(sorted(
    name for name in set(sys.modules) - before
    if "-packages" in (getattr(sys.modules[name], "__file__", None) or "")
    and name.partition(".")[0] != "repro")))
"""


@pytest.mark.parametrize("script", [CATALOG, SERVICE, FIG3, FLEET],
                         ids=["load_catalog", "import_service",
                              "fig3_topology", "m100_fleet_burst"])
def test_start_shape_loads_neither(fresh_interpreter, script):
    assert fresh_interpreter(script + REPORT) == []


def test_first_vector_batch_loads_nothing_and_keeps_the_tags(fresh_interpreter):
    assert fresh_interpreter(VECTOR) == []
