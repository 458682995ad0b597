"""One digest per spec: the catalog's determinism pin.

``golden/catalog_digest.json`` maps every catalog spec to the sha256
(:func:`~repro.engine.canon.content_hash`) of ``{"trials", "claims"}``
from its ``--short`` run.  Host time never enters either (the engine
files it under ``run_meta``), so a digest moves only when a result
does, and the failing case names the spec.

The writer below records untraced, with one worker and this
interpreter's built-in ``sum``; each case recomputes traced (every
trial writes its ``<trial>.jsonl`` and ``<trial>.prom``), with two
workers, under CPython 3.12's compensated float ``sum`` (gh-100425),
patched in.  So every case also proves that neither tracing nor the
worker count touches the result, and that no result depends on how the
interpreter sums floats: results sum them left to right
(``repro.analysis.metrics.total``).

``golden/trace_digest.json`` pins the bytes of those trace dumps: per
spec, the sha256 of every ``.jsonl`` and ``.prom`` a traced ``--short``
run writes.  The writer takes them from one more run per spec, traced
with one worker; each case hashes the files its own two-worker run
wrote, so the pin costs no extra trial.  A change to what a layer
counts or traces moves these and not the result digests.

A change that moves a result or a dump rewrites both goldens and says
which specs moved and why:

    PYTHONPATH=src python -m tests.engine.test_catalog_digest
"""

import builtins
import hashlib
import json
import math
import os
import tempfile

import pytest

from repro.engine.canon import content_hash
from repro.engine.registry import CATALOG_MODULES, all_specs, get_spec
from repro.engine.runner import run_experiment

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "catalog_digest.json")
TRACE_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                            "trace_digest.json")

_END = object()


def catalog():
    """Every spec the catalog modules register (not a test's own)."""
    return sorted(spec.name for spec in all_specs()
                  if spec.trial.__module__ in CATALOG_MODULES)


def digest(name, workers, trace_dir=None):
    document = run_experiment(name, short=True, workers=workers,
                              trace_dir=trace_dir).document()
    return content_hash({"trials": document["trials"],
                         "claims": document["claims"]})


def dump_hashes(trace_dir):
    """``{file: sha256 of its bytes}`` for every dump in ``trace_dir``."""
    hashes = {}
    for file in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, file), "rb") as handle:
            hashes[file] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def load_golden(path=GOLDEN):
    with open(path) as handle:
        return json.load(handle)


def compensated_sum(iterable, start=0):
    """CPython 3.12's built-in ``sum``: plain adds until the running
    total is a float, then Neumaier compensation over the float items."""
    items = iter(iterable)
    total = start
    while type(total) is not float:
        item = next(items, _END)
        if item is _END:
            return total
        total = total + item
    compensation = 0.0
    for item in items:
        if type(item) is not float:
            total = total + item
            continue
        summed = total + item
        if abs(total) >= abs(item):
            compensation += (total - summed) + item
        else:
            compensation += (item - summed) + total
        total = summed
    if compensation and math.isfinite(compensation):
        return total + compensation
    return total


def test_golden_covers_the_catalog():
    assert sorted(load_golden()) == catalog()
    assert sorted(load_golden(TRACE_GOLDEN)) == catalog()


@pytest.mark.parametrize("name", sorted(load_golden()))
def test_short_run_matches_its_digest(name, monkeypatch, tmp_path):
    # The engine's pool forks, so its workers inherit the patch.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert digest(name, workers=2, trace_dir=str(tmp_path)) \
        == load_golden()[name], \
        f"{name}: --short trials or claims moved; see this module's " \
        f"docstring to re-record"
    written = {suffix: sorted(file[:-len(suffix)]
                              for file in os.listdir(tmp_path)
                              if file.endswith(suffix))
               for suffix in (".jsonl", ".prom")}
    assert written[".jsonl"] == written[".prom"]
    assert len(written[".jsonl"]) == len(get_spec(name).expand(short=True))
    want = load_golden(TRACE_GOLDEN)[name]
    got = dump_hashes(tmp_path)
    moved = sorted(file for file in want.keys() | got.keys()
                   if want.get(file) != got.get(file))
    assert not moved, f"{name}: trace dumps moved: {moved}"


def write_golden(path, document):
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    digests, traces = {}, {}
    for name in catalog():
        digests[name] = digest(name, workers=1)
        with tempfile.TemporaryDirectory() as trace_dir:
            digest(name, workers=1, trace_dir=trace_dir)
            traces[name] = dump_hashes(trace_dir)
    write_golden(GOLDEN, digests)
    write_golden(TRACE_GOLDEN, traces)
    print(f"wrote {len(digests)} digests to {GOLDEN} and "
          f"{sum(map(len, traces.values()))} dump hashes to {TRACE_GOLDEN}")
