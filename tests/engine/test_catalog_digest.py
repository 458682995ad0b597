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
(``repro.analysis.total``).

A change that moves a result rewrites the golden and says which specs
moved and why:

    PYTHONPATH=src python -m tests.engine.test_catalog_digest
"""

import builtins
import json
import math
import os

import pytest

from repro.engine import (
    CATALOG_MODULES,
    all_specs,
    content_hash,
    get_spec,
    run_experiment,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "catalog_digest.json")

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


def load_golden():
    with open(GOLDEN) as handle:
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


if __name__ == "__main__":
    digests = {name: digest(name, workers=1) for name in catalog()}
    with open(GOLDEN, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
