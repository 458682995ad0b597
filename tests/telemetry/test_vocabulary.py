"""The trace-event vocabulary in ``repro.telemetry``'s docstring is
exactly the set of names the code emits.

Every ``<...>.tracer.emit(<name>, ...)`` call under ``src/repro`` is
read off the AST.  A name is a string literal, or one of the f-strings
in :data:`FORMATTED`, which stands for the names it can take.  A call
site whose name is neither fails the test, so does a name the
docstring lacks, and so does a listed name that nothing emits.
"""

import ast
import functools
import re
from pathlib import Path

import repro
import repro.telemetry

SRC = Path(repro.__file__).resolve().parent

#: f-string event names -> every name they format to.
FORMATTED = {
    "f'link.{state}'": ("link.up", "link.down"),
}


@functools.cache
def emitted_names():
    """``{name: [file:line, ...]}`` over every tracer emit in ``repro``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not (isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and func.attr == "emit"
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "tracer"):
                continue
            site = f"{path.relative_to(SRC)}:{node.lineno}"
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names = (arg.value,)
            else:
                names = FORMATTED.get(ast.unparse(arg))
                assert names is not None, \
                    f"{site}: event name {ast.unparse(arg)} is not a " \
                    f"literal; add it to FORMATTED"
            for name in names:
                found.setdefault(name, []).append(site)
    return found


def documented_names():
    doc = repro.telemetry.__doc__
    section = doc[doc.index("Trace-event vocabulary"):]
    return re.findall(r"``([a-z_]+(?:\.[a-z_]+)+)``", section)


def test_docstring_lists_each_name_once():
    names = documented_names()
    assert len(names) == len(set(names)), names


def test_every_emitted_name_is_documented():
    undocumented = {name: sites for name, sites in emitted_names().items()
                    if name not in documented_names()}
    assert not undocumented, undocumented


def test_every_documented_name_is_emitted():
    assert set(documented_names()) <= set(emitted_names())
