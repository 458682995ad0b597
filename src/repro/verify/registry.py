"""Registry of verifiable data-plane programs.

Every program that the ``repro verify`` CLI can analyze is listed here:
the ten in-network systems from :mod:`repro.systems` plus the P4Auth
overlay composed over the L3 forwarder (:mod:`repro.core.auth_ir`).
Each name maps to the one factory that installs the program on a switch
and returns its verify IR, read off that switch (``program.switch``).

Modules are imported lazily at build time so that importing
``repro.verify`` never drags in every system implementation.
"""

from __future__ import annotations

import importlib
from typing import List

from repro.verify.ir import Program

#: name -> (module, factory)
_FACTORIES = {
    "l3fwd": ("repro.systems.l3fwd", "verify_program"),
    "hula": ("repro.systems.hula", "verify_program"),
    "routescout": ("repro.systems.routescout", "verify_program"),
    "blink": ("repro.systems.blink", "verify_program"),
    "silkroad": ("repro.systems.silkroad", "verify_program"),
    "netcache": ("repro.systems.netcache", "verify_program"),
    "flowradar": ("repro.systems.flowradar", "verify_program"),
    "netwarden": ("repro.systems.netwarden", "verify_program"),
    "inaggr": ("repro.systems.inaggr", "verify_program"),
    "int": ("repro.systems.int_telemetry", "verify_program"),
    "p4auth": ("repro.core.auth_ir", "p4auth_program"),
}


def program_names() -> List[str]:
    """All registered program names, systems first, p4auth last."""
    return list(_FACTORIES)


def build(name: str) -> Program:
    """Install one registered program; raises KeyError for unknown names."""
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown program {name!r}; known: {', '.join(program_names())}")
    module_name, factory = _FACTORIES[name]
    return getattr(importlib.import_module(module_name), factory)()


__all__ = ["build", "program_names"]
