"""Command-line experiment runner: ``python -m repro``.

Every paper figure, table, and chaos scenario is a registered
:class:`~repro.engine.spec.ExperimentSpec`; the generic ``run``
subcommand executes any of them (with sweeps, worker sharding and
``BENCH_<name>.json`` artifacts) and ``report`` renders the
paper-style tables from those artifacts.

    python -m repro                  # list every registered experiment
    python -m repro run fig17 --workers 4
    python -m repro run fig21 --sweep hops=2,6,10 --short
    python -m repro run table3 --seed 99 --out-dir results/
    python -m repro report --dir results/   # markdown from BENCH_*.json
    python -m repro run fig17 --trace-dir traces/  # instrumented run:
                                     # per-trial JSONL trace + .prom dump
    python -m repro run kmp-blackout --sweep seed=7 --trace-dir traces/
                                     # chaos scenario; exit 1 if a
                                     # trial fails one of its checks
    python -m repro verify --all     # static analysis of every program
    python -m repro verify p4auth --format json
    python -m repro verify --selftest  # mutant battery
    python -m repro serve --m 100 --shards 4  # controller daemon
    python -m repro serve --smoke    # in-process service self-check
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.metrics import format_table


def print_experiment_listing(stream=None) -> None:
    """The registry, as a table: what ``repro run <name>`` accepts."""
    from repro.engine.registry import all_specs
    stream = stream or sys.stdout
    rows = []
    for spec in sorted(all_specs(), key=lambda s: s.name):
        rows.append([spec.name, spec.source, len(spec.expand()),
                     ",".join(spec.tags), spec.title])
    table = format_table(["name", "source", "trials", "tags", "title"],
                         rows, title="Registered experiments")
    print(table, file=stream)
    print("\nUsage: python -m repro run <name> [--sweep k=v1,v2] "
          "[--workers N] [--seed N] [--short]\n"
          "                            [--trace-dir DIR]\n"
          "       python -m repro {list,report,serve,verify}", file=stream)


def cmd_run(argv) -> int:
    """The generic engine front-end: run any registered spec.

    Returns 1 when a trial failed a check or the run a paper claim,
    after naming them on stderr; the artifact is written either way.
    """
    from repro.analysis.report import claim_rows
    from repro.engine.registry import get_spec
    from repro.engine.runner import Runner
    from repro.engine.spec import parse_sweep

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one registered experiment through the engine.")
    parser.add_argument("name", nargs="?", default=None,
                        help="registered experiment name "
                             "(see `python -m repro list`); omit to "
                             "print the listing")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="PARAM=V1,V2",
                        help="sweep a parameter over comma-separated "
                             "values (repeatable)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes to shard trials across "
                             "(results are identical for any value)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed: derive a distinct deterministic "
                             "seed per trial (default: keep each spec's "
                             "reference seeds)")
    parser.add_argument("--short", action="store_true",
                        help="use the spec's reduced CI-smoke parameters")
    parser.add_argument("--out-dir", default=".",
                        help="where BENCH_<name>.json is written "
                             "('' to skip the artifact)")
    parser.add_argument("--trace-dir", default=None,
                        help="write a per-trial telemetry JSONL trace and "
                             "Prometheus dump here")
    args = parser.parse_args(argv)

    if args.name is None:
        # Bare `repro run` is informational, not an error: show what the
        # engine can run and exit cleanly.
        print_experiment_listing()
        return 0
    try:
        spec = get_spec(args.name)
    except KeyError:
        print(f"unknown experiment {args.name!r}\n", file=sys.stderr)
        print_experiment_listing(sys.stderr)
        raise SystemExit(2)
    try:
        sweep = parse_sweep(spec, args.sweep) if args.sweep else None
    except (KeyError, ValueError) as exc:
        print(f"{exc.args[0]} (valid: {spec.param_names()})",
              file=sys.stderr)
        raise SystemExit(2)

    try:
        runner = Runner(workers=args.workers, out_dir=args.out_dir or None,
                        trace_dir=args.trace_dir)
    except ValueError as exc:
        print(f"--workers {args.workers}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    run = runner.run(spec, sweep=sweep, base_seed=args.seed,
                     short=args.short)

    rows = []
    for trial in run.trials:
        scalars = {key: value for key, value in trial.result.items()
                   if not isinstance(value, (dict, list))}
        preview = ", ".join(f"{k}={v}" for k, v in sorted(scalars.items()))
        rows.append([trial.id, trial.seed,
                     preview if len(preview) <= 72 else preview[:69] + "..."])
    print(format_table(["trial", "seed", "result"], rows,
                       title=f"{spec.name}: {spec.title}"))
    if run.claims:
        print("\n" + format_table(
            ["claim", "paper", "measured", "holds"], claim_rows(run.claims),
            title=f"{spec.source}: paper claims"))
    meta = run.run_meta
    print(f"\n# {meta['trials']} trials, workers={meta['workers']}, "
          f"{meta['elapsed_s']:.2f}s")
    if run.artifact_path:
        print(f"# wrote {run.artifact_path}")
    failed = run.failures()
    for index, (trial_id, name, detail) in enumerate(failed):
        if index == 0 or failed[index - 1][0] != trial_id:
            print(f"{trial_id}: FAILED", file=sys.stderr)
        print(f"  [FAIL] {name}" + (f" — {detail}" if detail else ""),
              file=sys.stderr)
    return 1 if failed else 0


def cmd_report(argv) -> int:
    """Render a markdown report from emitted ``BENCH_*.json`` artifacts."""
    from repro.analysis.report import render_artifact_report

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Summarize BENCH_*.json artifacts as markdown.")
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_*.json files")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    text = render_artifact_report(args.dir)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"# wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("list", "-h", "--help"):
        print_experiment_listing()
        return 0
    command, rest = argv[0], argv[1:]
    if command == "run":
        return cmd_run(rest)
    if command == "report":
        return cmd_report(rest)
    if command == "verify":
        from repro.verify.cli import cmd_verify
        return cmd_verify(rest)
    if command == "serve":
        from repro.service.cli import cmd_serve
        return cmd_serve(rest)
    print(f"unknown command {command!r}\n", file=sys.stderr)
    print_experiment_listing(sys.stderr)
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
