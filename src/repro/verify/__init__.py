"""repro.verify — static analysis for the data-plane programs.

Four analyzer families over the IR in :mod:`repro.verify.ir`, whose
register and table declarations are read off the installed switch:

* :mod:`repro.verify.taint` — key-material information flow (TAINT*),
* :mod:`repro.verify.resources_lint` — Tofino budget linting (RES*),
* :mod:`repro.verify.invariants` — PISA pipeline invariants (INV*),
* :mod:`repro.verify.surface` — persona-steerable surface (SURF*),

plus :mod:`repro.verify.live`, which checks what the installed mapping
table exposes (LIVE002), and :mod:`repro.verify.mutants`, the
seeded-violation self-test.  ``python -m repro verify`` is the CLI.

Only the findings model and IR are re-exported here; analyzers are
imported lazily by the CLI so that ``import repro.verify`` stays cheap
and free of cycles with :mod:`repro.systems`.
"""

from repro.verify.findings import Finding, Report, Severity, make_finding
from repro.verify.ir import Program

__all__ = ["Finding", "Program", "Report", "Severity", "make_finding"]
