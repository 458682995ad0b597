#!/usr/bin/env python3
"""The repo's host-time benchmark.

    python bench/run.py                      # all six workloads, untraced
    python bench/run.py --trace              # ... plus the traced pass
    python bench/run.py --workloads cdp_rw,serve_http --seed 12 --runs 5
    python bench/run.py --compare A.json B.json
    python bench/run.py --check-repeat       # two sets, must agree

    # one workload, one JSON line last (what the benchmark driver calls):
    python bench/run.py --workload cdp_rw --seed 3 --seconds 10 --trace 0

Every timing is host time scaled to reference speed (bench/README.md,
"Host time, virtual time and the yardstick"); virtual-time results are
only fingerprinted for correctness.  See BENCHMARK.json for the metric
names, units, directions and bounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is bench/ itself: drop it so the package is
# only ever imported as ``bench.<module>``.
sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != ROOT / "bench"]


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def host_record() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform()}


def value_of(outcome, name: str) -> float:
    """A metric or count by name; one a workload does not cross reads 0."""
    return outcome.metrics.get(name, outcome.counts.get(name, 0.0))


def print_metrics(outcome, specs) -> None:
    """Every metric by name, with its unit (and sample counts in notes)."""
    print(f"## {outcome.workload} seed={outcome.seed} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"fingerprint={outcome.fingerprint[:16]}")
    for spec in specs:
        name, value = spec["name"], value_of(outcome, spec["name"])
        bound = f"  bound {spec['bound']:.2f}" if "bound" in spec else ""
        print(f"{outcome.workload}.{name} = {value:.6g} {spec['unit']} "
              f"({spec['better']} is better){bound}")
    for key, value in sorted(outcome.notes.items()):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"#   {key}: {shown}")


def result_line(outcome, specs) -> str:
    """The driver's contract: one JSON object, last on standard output."""
    metrics = {spec["name"]: {"value": value_of(outcome, spec["name"]),
                              "unit": spec["unit"]} for spec in specs}
    return json.dumps({"correct": True, "attempted": int(outcome.attempted),
                       "failed": int(outcome.failed), "metrics": metrics})


def run_driver_mode(args, contract) -> int:
    from bench import harness
    traced = bool(args.trace)
    if traced:
        outcome = harness.measure_traced(
            args.workload, args.seed, args.seconds,
            trace_path=os.path.join(args.out,
                                    f"trace_{args.workload}.jsonl"))
        specs = contract["per_layer"]
    else:
        outcome = harness.measure(args.workload, args.seed, args.seconds)
        specs = contract["end_to_end"]
    if args.pin:
        share = harness.TRACED_SHARE if traced else 1.0
        harness.pin_fingerprint(args.workload, args.seed,
                                args.seconds * share, outcome.fingerprint)
    print_metrics(outcome, specs)
    if args.outcome_file:
        with open(args.outcome_file, "w") as handle:
            json.dump(dataclasses.asdict(outcome), handle)
    print(result_line(outcome, specs))
    return 0


def run_one(name: str, seed: int, seconds: float, traced: bool,
            out_dir: str, pin: bool) -> dict:
    """One workload, one run, in a process of its own — as the driver
    runs it — so that peak RSS and allocator state start fresh."""
    outcome_file = os.path.join(out_dir, "outcome.json")
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced)),
               "--out", out_dir, "--outcome-file", outcome_file]
    if pin:
        command.append("--pin")
    done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE,
                          text=True)
    # Everything but the driver's JSON line, which is for machines.
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n"
                     if done.returncode == 0 else done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    with open(outcome_file) as handle:
        outcome = json.load(handle)
    os.remove(outcome_file)
    return outcome


def run_set(names, seed: int, seconds: float, runs: int, traced: bool,
            contract, out_dir: str, pin: bool = False) -> dict:
    """``runs`` runs of each workload (seeds seed, seed+1, ...); returns
    the result document ``--compare`` reads."""
    document = {"host": host_record(), "seconds": seconds,
                "bounds": {spec["name"]: spec["bound"]
                           for spec in contract["end_to_end"]},
                "better": {spec["name"]: spec["better"]
                           for spec in contract["end_to_end"]},
                "workloads": {}}
    for name in names:
        record = document["workloads"][name] = {
            "runs": [], "fingerprints": {}, "counts": {}}
        for run_seed in range(seed, seed + runs):
            outcome = run_one(name, run_seed, seconds, False, out_dir, pin)
            record["runs"].append(outcome["metrics"])
            record["fingerprints"][str(run_seed)] = outcome["fingerprint"]
            record["counts"][str(run_seed)] = outcome["counts"]
        if traced:
            outcome = run_one(name, seed, seconds, True, out_dir, pin)
            record["per_layer"] = {**outcome["counts"], **outcome["metrics"]}
            record["traced_fingerprint"] = outcome["fingerprint"]
    return document


def main(argv=None) -> int:
    contract = load_contract()
    names = [spec["name"] for spec in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="host seconds the timed region is sized for")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset to run")
    parser.add_argument("--workload", choices=names, default=None,
                        help="driver mode: run this one workload and print "
                             "one JSON result line last")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced pass (per-layer metrics)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload in a set (seeds seed..)")
    parser.add_argument("--out", default=None,
                        help="directory for result.json and trace files "
                             "(default bench/out)")
    parser.add_argument("--pin", action="store_true",
                        help="record the fingerprints found in "
                             "bench/fingerprints.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets of this checkout; exit non-zero "
                             "unless every row is ok")
    parser.add_argument("--setup-only", metavar="WORKLOAD", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--outcome-file", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from bench import compare
    from bench.common import GateFailure, OUT, pin_to_one_cpu

    if args.compare:
        rows = compare.compare_files(*args.compare)
        print(compare.render(rows))
        return 0 if all(row.verdict == "ok" for row in rows) else 1

    pin_to_one_cpu()
    if args.setup_only:
        from bench import harness
        harness.setup_only(args.setup_only, args.seed, args.seconds)
        return 0
    if args.out is None:
        args.out = str(OUT)
    os.makedirs(args.out, exist_ok=True)

    try:
        if args.workload:
            return run_driver_mode(args, contract)
        selected = [name for name in args.workloads.split(",") if name]
        unknown = sorted(set(selected) - set(names))
        if unknown:
            parser.error(f"unknown workloads {unknown} (have: {names})")
        if args.check_repeat:
            runs = max(args.runs, 5)
            first = run_set(selected, args.seed, args.seconds, runs, False,
                            contract, args.out)
            second = run_set(selected, args.seed, args.seconds, runs, False,
                             contract, args.out)
            for label, document in (("a", first), ("b", second)):
                with open(os.path.join(args.out, f"repeat_{label}.json"),
                          "w") as handle:
                    json.dump(document, handle, indent=1, sort_keys=True)
            rows = compare.compare_documents(first, second)
            print(compare.render(rows))
            drift = compare.deterministic_drift(first, second)
            for line in drift:
                print(f"NOT IDENTICAL: {line}")
            ok = all(row.verdict == "ok" for row in rows) and not drift
            return 0 if ok else 1
        document = run_set(selected, args.seed, args.seconds, args.runs,
                           bool(args.trace), contract, args.out,
                           pin=args.pin)
        path = os.path.join(args.out, "result.json")
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {path}")
        return 0
    except GateFailure as failure:
        print(f"CORRECTNESS GATE FAILED: {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
