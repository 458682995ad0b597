"""``repro verify`` — run the static analyzers over registered programs.

Usage (via ``python -m repro verify``)::

    repro verify                 # analyze every registered program
    repro verify --all           # same, explicitly
    repro verify p4auth hula     # analyze a subset
    repro verify --list          # list registered program names
    repro verify --selftest      # run the mutant battery
    repro verify --format json   # machine-readable findings

Exit codes: 0 — clean (warnings allowed); 1 — at least one
ERROR-severity finding (or a failed self-test); 2 — unknown program
name (one stderr line, nothing built, nothing on stdout) or bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.verify import analyze
from repro.verify.findings import Report
from repro.verify.registry import build, program_names


def _run_selftest(fmt: str) -> int:
    from repro.verify.mutants import run_selftest, selftest_ok

    results = run_selftest()
    if fmt == "json":
        print(json.dumps({
            "ok": selftest_ok(results),
            "mutants": [
                {"name": r.name, "expected_rule": r.expected_rule,
                 "caught": r.caught, "rules_fired": sorted(r.rules_fired)}
                for r in results
            ],
        }, indent=2))
    else:
        for r in results:
            status = "caught" if r.caught else "MISSED"
            print(f"[{status}] {r.name}: expected {r.expected_rule}, "
                  f"fired {sorted(r.rules_fired)}")
        verdict = "OK" if selftest_ok(results) else "FAILED"
        print(f"selftest: {verdict} ({len(results)} mutants)")
    return 0 if selftest_ok(results) else 1


def cmd_verify(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="statically analyze data-plane programs",
    )
    parser.add_argument("programs", nargs="*",
                        help="program names (default: all)")
    parser.add_argument("--all", action="store_true",
                        help="analyze every registered program")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--list", action="store_true",
                        help="list registered programs and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="run the mutant battery and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in program_names():
            print(name)
        return 0
    if args.selftest:
        return _run_selftest(args.format)

    known = program_names()
    names = args.programs if (args.programs and not args.all) else known
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"repro verify: unknown program(s) "
              f"{', '.join(map(repr, unknown))}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    report = Report()
    for name in names:
        report.extend(analyze(build(name)))

    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
        print(f"verified {len(names)} program(s): "
              f"{len(report.errors())} error(s), "
              f"{len(report.findings)} finding(s) total")
    return 0 if report.ok else 1


__all__ = ["cmd_verify"]
