"""Trial-matrix execution: serial or sharded across worker processes.

The :class:`Runner` expands a spec into its deterministic trial list,
executes every trial (optionally with per-trial telemetry capture:
``<trial>.jsonl`` trace plus ``<trial>.prom`` metrics dump), judges the
spec's claims and assembles the canonical artifact.  Trials go through
one process-pool map, :func:`_pool_map`; no trial opens a pool of its
own.  Because every trial's seed and parameters are fixed
*before* execution (:meth:`ExperimentSpec.expand`), and results are
collected by index rather than completion order, ``workers=1`` and
``workers=N`` produce byte-identical ``trials`` and ``claims`` sections
— parallelism is purely a wall-clock optimization.  Host time never
enters a trial's result: the runner's own elapsed time and every
trial's ``ctx.host`` readings are filed under ``run_meta``, so two runs
differ only there.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.engine.artifact import build_artifact, write_artifact
from repro.engine.canon import to_jsonable
from repro.engine.registry import get_spec
from repro.engine.spec import ExperimentSpec, TrialContext, TrialPlan
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.exporters import write_prometheus


class MissingTrials(KeyError):
    """No unique trial matches: the run does not cover that region."""


def failures(trials: Iterable[Tuple[str, Dict[str, Any]]],
             claims: Iterable[Dict[str, Any]] = ()) -> List[tuple]:
    """``(trial id, check name, detail)`` per failed check, given
    ``(trial id, result)`` pairs, then ``("claims", name, detail)`` per
    failed claim: a live run and a ``BENCH_*.json`` read the same."""
    failed = [(trial_id, check["name"], check["detail"])
              for trial_id, result in trials
              for check in result.get("invariants", ())
              if not check["passed"]]
    return failed + [
        ("claims", claim["name"],
         f"measured {claim['measured']}, paper {claim['paper']}")
        for claim in claims if claim["holds"] is False]


def judge_claims(spec: ExperimentSpec, run: "RunResult"
                 ) -> List[Dict[str, Any]]:
    """One row per claim of ``spec``; ``holds`` is ``None`` when the run
    lacks the trials the claim pins."""
    rows = []
    for name, paper, measure in spec.claims:
        try:
            measured, holds = measure(run)
            holds = bool(holds)
        except MissingTrials:
            measured, holds = None, None
        rows.append({"name": name, "paper": paper, "measured": measured,
                     "holds": holds})
    return rows


@dataclass
class TrialRecord:
    """One executed trial."""

    id: str
    params: Dict[str, Any]
    seed: int
    result: Dict[str, Any]

    def as_artifact_entry(self) -> Dict[str, Any]:
        return {"id": self.id, "params": self.params, "seed": self.seed,
                "result": self.result}


@dataclass
class RunResult:
    """Everything one engine run produced."""

    spec: ExperimentSpec
    base_seed: Optional[int]
    trials: List[TrialRecord] = field(default_factory=list)
    claims: List[Dict[str, Any]] = field(default_factory=list)
    run_meta: Dict[str, Any] = field(default_factory=dict)
    artifact_path: Optional[str] = None

    def document(self) -> Dict[str, Any]:
        return build_artifact(
            self.spec, [t.as_artifact_entry() for t in self.trials],
            self.base_seed, self.run_meta, self.claims)

    def _trial_for(self, **params) -> TrialRecord:
        matches = [t for t in self.trials
                   if all(t.params.get(k) == v for k, v in params.items())]
        if len(matches) != 1:
            raise MissingTrials(f"{len(matches)} trials match {params} "
                                f"in {self.spec.name!r}")
        return matches[0]

    def result_for(self, **params) -> Dict[str, Any]:
        """The result of the unique trial whose params include every
        given item."""
        return self._trial_for(**params).result

    def host_for(self, **params) -> Dict[str, float]:
        """That trial's host-clock readings (``run_meta["host"]``)."""
        return self.run_meta.get("host", {}).get(
            self._trial_for(**params).id, {})

    def by(self, axis: str, values: Sequence[Any],
           **pins) -> Dict[Any, Dict[str, Any]]:
        """``{value: result_for(**pins, axis=value)}`` for each value."""
        return {value: self.result_for(**pins, **{axis: value})
                for value in values}

    def results(self) -> List[Dict[str, Any]]:
        return [t.result for t in self.trials]

    def failures(self) -> List[tuple]:
        """Every failed check and claim of the run."""
        return failures(((t.id, t.result) for t in self.trials),
                        self.claims)


def execute_trial(spec: ExperimentSpec, plan: TrialPlan,
                  trace_dir: Optional[str] = None
                  ) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Run one trial in-process: its canonical result and the host-clock
    readings it took (``ctx.host``)."""
    telemetry = (NULL_TELEMETRY if trace_dir is None
                 else Telemetry(enabled=True))
    ctx = TrialContext(params=dict(plan.params), seed=plan.seed,
                       telemetry=telemetry)
    result = to_jsonable(spec.trial(ctx))
    if not isinstance(result, dict):
        raise TypeError(f"trial for {spec.name!r} must return a mapping, "
                        f"got {type(result).__name__}")
    if telemetry.enabled:
        os.makedirs(trace_dir, exist_ok=True)
        safe = plan.trial_id.replace("[", ".").replace("]", "")
        stem = os.path.join(trace_dir, safe)
        telemetry.tracer.dump(f"{stem}.jsonl")
        write_prometheus(telemetry.metrics, f"{stem}.prom")
    return result, ctx.host


def pool_size(workers: int, items: int) -> int:
    """Processes :func:`_pool_map` runs ``items`` jobs on; 1 is inline:
    one process per item, up to ``workers``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return max(1, min(workers, items))


def _pool_map(fn: Callable, items: Sequence[Any], workers: int) -> List[Any]:
    """``[fn(item) for item in items]``, sharded over :func:`pool_size`
    processes; results come back in item order."""
    processes = pool_size(workers, len(items))
    if processes == 1:
        return [fn(item) for item in items]
    # fork shares the in-process registry (including test-registered
    # specs); under spawn the worker re-imports the catalog instead.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(processes=processes) as pool:
        # map (not imap_unordered), one item per task: results come back
        # in item order, so sharding cannot perturb the artifact.
        return pool.map(fn, items, chunksize=1)


class Runner:
    """Expands, shards and records experiment runs."""

    def __init__(self, workers: int = 1, out_dir: Optional[str] = None,
                 trace_dir: Optional[str] = None):
        pool_size(workers, 0)  # rejects workers < 1 before any trial
        self.workers = workers
        self.out_dir = out_dir
        self.trace_dir = trace_dir

    def run(self, spec_or_name: Union[str, ExperimentSpec],
            sweep: Optional[Dict[str, Sequence[Any]]] = None,
            base_seed: Optional[int] = None,
            short: bool = False) -> RunResult:
        spec = (get_spec(spec_or_name) if isinstance(spec_or_name, str)
                else spec_or_name)
        plans = spec.expand(sweep=sweep, short=short, base_seed=base_seed)
        started = time.perf_counter()
        results = _pool_map(
            partial(execute_trial, spec, trace_dir=self.trace_dir),
            plans, self.workers)

        run = RunResult(spec=spec, base_seed=base_seed)
        host = {}
        for plan, (result, readings) in zip(plans, results):
            run.trials.append(TrialRecord(
                id=plan.trial_id, params=to_jsonable(plan.params),
                seed=plan.seed, result=result))
            if readings:
                host[plan.trial_id] = readings
        run.claims = judge_claims(spec, run)
        run.run_meta = {
            "workers": self.workers,
            "trials": len(plans),
            "elapsed_s": round(time.perf_counter() - started, 6),
            "short": short,
        }
        if host:
            run.run_meta["host"] = host
        if self.out_dir is not None:
            run.artifact_path = write_artifact(run.document(), self.out_dir)
        return run


def run_experiment(name: str, sweep: Optional[Dict[str, Sequence]] = None,
                   workers: int = 1, base_seed: Optional[int] = None,
                   short: bool = False,
                   out_dir: Optional[str] = None,
                   trace_dir: Optional[str] = None) -> RunResult:
    """One-call convenience wrapper around :class:`Runner`."""
    runner = Runner(workers=workers, out_dir=out_dir, trace_dir=trace_dir)
    return runner.run(name, sweep=sweep, base_seed=base_seed, short=short)


__all__ = [
    "MissingTrials",
    "RunResult",
    "Runner",
    "TrialRecord",
    "execute_trial",
    "failures",
    "judge_claims",
    "pool_size",
    "run_experiment",
]
