"""The single registry every experiment spec lives in.

Specs register themselves at module import (``register(SPEC)`` at the
bottom of each experiment module); :func:`load_catalog` imports every
spec-bearing module so callers — the CLI, the report generator, worker
processes — see the full catalog no matter which entry point they came
through.  Registration is idempotent by name, so re-imports (pytest,
spawn-based multiprocessing) are harmless.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from repro.engine.spec import ExperimentSpec

_REGISTRY: Dict[str, ExperimentSpec] = {}

#: Every module that registers specs on import.  New experiments add
#: themselves here and nowhere else.
CATALOG_MODULES = (
    "repro.experiments.fig16_routescout",
    "repro.experiments.fig17_hula",
    "repro.experiments.fig20_kmp",
    "repro.experiments.fig21_multihop",
    "repro.experiments.table1_impact",
    "repro.experiments.table2_resources",
    "repro.experiments.table3_scalability",
    "repro.experiments.attack2_aggregation",
    "repro.experiments.cdp_batch",
    "repro.experiments.cdp_service_load",
    "repro.experiments.fct_inflation",
    "repro.experiments.fleet_scale",
    "repro.experiments.int_manipulation",
    "repro.experiments.persona_matrix",
    "repro.experiments.store_recovery",
    "repro.experiments.fig18_rct",
    "repro.faults.scenarios",
)

_catalog_loaded = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add (or idempotently replace) a spec; returns it for reuse."""
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (test helper)."""
    _REGISTRY.pop(name, None)


def load_catalog() -> None:
    """Import every catalog module exactly once per process."""
    global _catalog_loaded
    if _catalog_loaded:
        return
    for module in CATALOG_MODULES:
        importlib.import_module(module)
    _catalog_loaded = True


def get_spec(name: str) -> ExperimentSpec:
    """Look up a spec, loading the catalog on first miss."""
    if name not in _REGISTRY:
        load_catalog()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r} "
                       f"(have: {spec_names()})") from None


def all_specs() -> List[ExperimentSpec]:
    load_catalog()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def spec_names() -> List[str]:
    load_catalog()
    return sorted(_REGISTRY)


__all__ = [
    "CATALOG_MODULES",
    "all_specs",
    "get_spec",
    "load_catalog",
    "register",
    "spec_names",
    "unregister",
]
