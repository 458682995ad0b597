"""Canonical ``BENCH_<name>.json`` result artifacts.

One artifact = one experiment run: the expanded trial matrix with every
trial's parameters, seed, and canonical result, the spec's paper claims
as judged over the trials under ``claims``, and every host-clock fact
kept strictly apart in ``run_meta``: the run's elapsed time and worker
count, and under ``run_meta["host"][<trial id>]`` each trial's own
wall-clock readings.  Two runs of the same matrix therefore differ
*only* inside ``run_meta``; ``tests/engine/test_catalog_digest.py``
pins a digest of everything else for every spec.  ``analysis/report.py``
renders these back into paper-style tables, and CI uploads them as
build artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.canon import SCHEMA, to_jsonable

#: Keys every artifact must carry, in schema order.
REQUIRED_KEYS = ("schema", "experiment", "spec_version", "source",
                 "title", "base_seed", "trials")
#: Keys every trial record must carry.
TRIAL_KEYS = ("id", "params", "seed", "result")
#: Keys every claim record must carry.
CLAIM_KEYS = ("name", "paper", "measured", "holds")


def build_artifact(spec, trials: List[Dict[str, Any]],
                   base_seed: Optional[int],
                   run_meta: Optional[Dict[str, Any]] = None,
                   claims: Sequence[Dict[str, Any]] = ()
                   ) -> Dict[str, Any]:
    """Assemble the canonical artifact document for one run."""
    return to_jsonable({
        "schema": SCHEMA,
        "experiment": spec.name,
        "spec_version": spec.spec_version,
        "source": spec.source,
        "title": spec.title,
        "base_seed": base_seed,
        "trials": trials,
        "claims": list(claims),
        "run_meta": run_meta or {},
    })


def artifact_path(name: str, out_dir: str = ".") -> str:
    safe = name.replace("/", "_").replace("-", "_")
    return os.path.join(out_dir, f"BENCH_{safe}.json")


def write_artifact(document: Dict[str, Any], out_dir: str = ".") -> str:
    """Validate and write the artifact; returns its path."""
    validate_artifact(document)
    path = artifact_path(document["experiment"], out_dir)
    os.makedirs(out_dir or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str) -> Dict[str, Any]:
    with open(path, "r") as handle:
        document = json.load(handle)
    validate_artifact(document)
    return document


def validate_artifact(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid v1 artifact."""
    if not isinstance(document, dict):
        raise ValueError("artifact must be a JSON object")
    missing = [key for key in REQUIRED_KEYS if key not in document]
    if missing:
        raise ValueError(f"artifact missing keys: {missing}")
    if document["schema"] != SCHEMA:
        raise ValueError(f"unsupported artifact schema "
                         f"{document['schema']!r} (want {SCHEMA!r})")
    if not isinstance(document["trials"], list) or not document["trials"]:
        raise ValueError("artifact must contain a non-empty trial list")
    seen = set()
    for trial in document["trials"]:
        absent = [key for key in TRIAL_KEYS if key not in trial]
        if absent:
            raise ValueError(f"trial record missing keys: {absent}")
        if not isinstance(trial["params"], dict):
            raise ValueError("trial params must be an object")
        if not isinstance(trial["result"], dict):
            raise ValueError("trial result must be an object")
        if trial["id"] in seen:
            raise ValueError(f"duplicate trial id {trial['id']!r}")
        seen.add(trial["id"])
    claims = document.get("claims", [])  # absent before claims existed
    if not isinstance(claims, list) or not all(
            isinstance(claim, dict) and set(CLAIM_KEYS) <= set(claim)
            for claim in claims):
        raise ValueError(f"claims must be objects with keys {CLAIM_KEYS}")


__all__ = [
    "artifact_path",
    "build_artifact",
    "load_artifact",
    "validate_artifact",
    "write_artifact",
]
