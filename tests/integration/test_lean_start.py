"""A start loads what the command uses: no numpy, no networkx.

Time from "process started" to "first authenticated answer" is time a
tampered register goes unanswered, and until PR 21 half of it was
importing two libraries no served request touches.  Each case runs in a
fresh interpreter (``sys.modules`` of the test process proves nothing)
and ends by printing which of the two modules it loaded.  The vector
digest lane is plain integers since PR 22, so its case prints every
module it loaded from a ``site-packages`` directory instead.

The same holds inside ``repro``: every module a start imports is
compiled from source, so a package ``__init__`` that re-exported its
package would load all of it for one submodule.  The ``fwd`` shape and
the service CLI pin their ``repro`` module sets, and an AST pass keeps
the ``__init__``s free of re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

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


LOADED = """
import json, sys
print(json.dumps(sorted(name for name in sys.modules
                        if name.partition(".")[0] == "repro")))
"""

# The benchmark's ``fwd_plain`` / ``fwd_p4auth`` import shape.
FWD = """
from repro.attacks.link import ProbeFieldTamperer
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.net.topology import hula_fig3_topology
from repro.systems.hula import HulaDataplane, fig3_hula_configs
"""


def in_package(loaded, *packages):
    return sorted(name for name in loaded for package in packages
                  if name == package or name.startswith(package + "."))


def test_fwd_shape_loads_the_hula_walk_only(fresh_interpreter):
    loaded = fresh_interpreter(FWD + LOADED)
    assert in_package(loaded, "repro.systems") == [
        "repro.systems", "repro.systems.hula"]
    assert in_package(loaded, "repro.engine", "repro.attacks.personas",
                      "repro.core.kmp", "repro.dataplane.resources") == []


def test_service_cli_loads_no_experiment_engine(fresh_interpreter):
    loaded = fresh_interpreter("import repro.service.cli\n" + LOADED)
    assert "repro.service.daemon" in loaded
    assert in_package(loaded, "repro.engine", "repro.runtime.harness",
                      "repro.analysis") == []


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
REPO = SRC.parents[1]
#: ``repro.telemetry`` defines its API in its ``__init__``;
#: ``repro.store`` and ``repro.service`` re-export theirs because the
#: benchmark imports them by package name.
PACKAGE_APIS = ("service", "store", "telemetry")


def package_inits():
    return sorted(init for init in SRC.glob("*/__init__.py")
                  if init.parent.name not in PACKAGE_APIS)


@pytest.mark.parametrize("init", package_inits(),
                         ids=lambda init: init.parent.name)
def test_package_init_reexports_nothing(init):
    """An ``__init__`` imports a submodule only for a name its own code
    uses (``repro.verify.analyze``'s signature), and lists no
    ``__all__``."""
    tree = ast.parse(init.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            assert not [alias.name for alias in node.names
                        if alias.name.startswith("repro")]
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("repro"):
            unused = [alias.name for alias in node.names
                      if (alias.asname or alias.name) not in used]
            assert unused == [], f"re-exported from {node.module}"
        assert "__all__" not in {target.id for target in getattr(
            node, "targets", ()) if isinstance(target, ast.Name)}


def test_every_import_names_the_defining_module():
    """No file imports through a package a name its ``__init__`` does not
    define: the examples and benchmarks included, which tier-1 does not
    run."""
    defined = {}
    for init in package_inits():
        defined[f"repro.{init.parent.name}"] = {
            path.stem for path in init.parent.glob("*.py")} | {
            node.name for node in ast.parse(init.read_text()).body
            if isinstance(node, ast.FunctionDef)}
    stray = []
    for root in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in defined:
                    stray += [f"{path.relative_to(REPO)}:{node.lineno} "
                              f"{alias.name}" for alias in node.names
                              if alias.name not in defined[node.module]]
    assert stray == []
