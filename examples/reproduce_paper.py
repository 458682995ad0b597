#!/usr/bin/env python3
"""Reproduce every paper table and figure, writing RESULTS.md.

Runs every registered experiment spec through the engine at its
``--short`` parameters (a few minutes) into a temporary directory, then
renders the emitted ``BENCH_*.json`` artifacts as a single Markdown
document — the same thing as ``python -m repro run <name> --short
--out-dir DIR`` per spec followed by ``python -m repro report --dir DIR``.

Run:  python examples/reproduce_paper.py [output.md]
"""

import sys
import tempfile

from repro.analysis.report import render_artifact_report
from repro.engine.registry import all_specs
from repro.engine.runner import run_experiment


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "RESULTS.md"
    print("Reproducing every registered experiment (--short)...")
    with tempfile.TemporaryDirectory() as out_dir:
        for spec in sorted(all_specs(), key=lambda s: s.name):
            run = run_experiment(spec.name, short=True, out_dir=out_dir)
            print(f"  [done] {spec.name} "
                  f"({run.run_meta['elapsed_s']:.1f}s)")
        text = render_artifact_report(out_dir)
    with open(output, "w") as handle:
        handle.write(text)
    print(f"\nWrote {output} ({len(text.splitlines())} lines).")


if __name__ == "__main__":
    main()
