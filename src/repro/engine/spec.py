"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one paper figure/table/scenario as
data: a parameter grid (the axes that vary across trials), scalar
defaults, and a trial function that builds the scenario and returns a
canonical result dict.  The :class:`~repro.engine.runner.Runner` expands
the grid into a deterministic trial list, derives one seed per trial,
and executes trials serially or across worker processes — the spec
itself never knows how it is being run.  The trial function is the
experiment's only entry point: it reads every setting from
``ctx.params``, each one a declared grid axis or default, so no second
function with keyword defaults of its own can drift from the spec.

Seed derivation
---------------
Every experiment that consumes randomness exposes it through a single
``seed`` parameter (named by :attr:`ExperimentSpec.seed_param`).  With no
base seed, each trial keeps the module's reference seed, so the trial
function called by hand with a plan's params and seed returns exactly
what the engine records (the parity tests pin this).  With
``base_seed=N`` (CLI ``--seed N``), each trial's seed is re-derived as
a pure function of ``(base_seed, spec name, the trial's other
parameters)`` via :func:`derive_seed`, so

- two trials of one sweep never share a seed by accident,
- a trial's seed never depends on execution order or worker count
  (parallel and serial runs are bit-identical), and
- re-running a sweep with the same base seed reproduces it exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.engine.canon import canonical_json, content_hash
from repro.telemetry import NULL_TELEMETRY


@dataclass
class TrialContext:
    """Everything the engine hands a trial function for one execution."""

    #: Fully resolved parameters (grid axes + defaults + sweep overrides).
    params: Dict[str, Any]
    #: The trial's seed (also present in ``params`` for seeded specs).
    seed: int
    #: The ``Telemetry`` every simulator the trial builds carries: live
    #: when per-trial trace capture is on, else :data:`NULL_TELEMETRY`.
    telemetry: Any = NULL_TELEMETRY
    #: The named checks this trial has recorded so far, in order.
    checks: List[Dict[str, Any]] = field(default_factory=list)
    #: Host-clock readings (wall seconds and what is derived from them).
    #: The runner files them under ``run_meta``, never in the result, so
    #: the result is a pure function of spec, params and code.
    host: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one named claim about the finished run: a failed claim
        is a row of the artifact and an exit status, never an exception."""
        self.checks.append({"name": name, "passed": bool(ok),
                            "detail": detail})

    def verdict(self) -> Dict[str, Any]:
        """What a trial that judges itself merges into what it returns."""
        return {"passed": all(c["passed"] for c in self.checks),
                "invariants": list(self.checks)}


TrialFn = Callable[[TrialContext], Mapping]

#: ``(name, paper, measure)``: ``measure(run) -> (measured, ok)`` reads
#: the trials it pins through ``run.result_for``; a run without them
#: raises ``MissingTrials`` there and the claim reads "not evaluated".
Claim = Tuple[str, str, Callable[[Any], Tuple[Any, bool]]]


def claim(name: str, paper: str, value: Callable[[Any], Any],
          test: Callable[[Any], bool], show: str = "{}") -> Claim:
    """The :data:`Claim` judging ``value(run)`` by ``test``, as ``show``."""
    def measure(run):
        got = value(run)
        return show.format(got), test(got)
    return name, paper, measure


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment as data; registered in :mod:`repro.engine.registry`."""

    name: str
    title: str
    #: Where the numbers land in the paper ("Fig 16", "Table I", "chaos").
    source: str
    #: Builds the scenario for one parameter point; returns a JSONable
    #: mapping.  Must be a module-level callable (worker processes look
    #: the spec up by name and call it there).
    trial: TrialFn
    #: Axes that vary across trials: param name -> sequence of values.
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: Scalar parameters shared by every trial (sweepable via overrides).
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Overrides applied by ``--short`` (CI smoke: cheap but real runs).
    short: Mapping[str, Any] = field(default_factory=dict)
    #: Name of the parameter carrying the trial seed, or None for
    #: experiments that are deterministic by construction.
    seed_param: Optional[str] = None
    #: Bumped whenever the trial's result semantics change (artifact
    #: metadata).
    spec_version: int = 1
    tags: Tuple[str, ...] = ()
    #: The paper's claims about this experiment, judged after the run.
    claims: Tuple[Claim, ...] = ()

    def __reduce__(self):
        # A spec crosses into a pool worker as its registered name (its
        # claims are closures, which do not pickle): the worker looks it
        # up in its own registry.
        from repro.engine.registry import get_spec
        return get_spec, (self.name,)

    def param_names(self) -> List[str]:
        return sorted(set(self.grid) | set(self.defaults))

    def expand(self, sweep: Optional[Mapping[str, Sequence[Any]]] = None,
               short: bool = False,
               base_seed: Optional[int] = None) -> List["TrialPlan"]:
        """The deterministic trial list for one run.

        ``sweep`` maps parameter names to value lists; a swept parameter
        becomes (or replaces) a grid axis.  Axes are iterated in sorted
        name order, values in the order given, so the trial list — and
        therefore every artifact — is independent of dict insertion
        order and worker scheduling.
        """
        axes: Dict[str, Sequence[Any]] = dict(self.grid)
        scalars: Dict[str, Any] = dict(self.defaults)
        if short:
            for key, value in self.short.items():
                if key in axes:
                    axes[key] = value if isinstance(value, (list, tuple)) \
                        else [value]
                else:
                    scalars[key] = value
        for key, values in (sweep or {}).items():
            if key not in axes and key not in scalars:
                raise KeyError(
                    f"{self.name!r} has no parameter {key!r} "
                    f"(valid: {self.param_names()})")
            scalars.pop(key, None)
            axes[key] = list(values)

        names = sorted(axes)
        plans: List[TrialPlan] = []
        for combo in itertools.product(*(axes[name] for name in names)):
            params = dict(scalars)
            params.update(zip(names, combo))
            seed = self._trial_seed(params, base_seed)
            if self.seed_param is not None:
                params[self.seed_param] = seed
            plans.append(TrialPlan(spec_name=self.name, params=params,
                                   seed=seed, varied=list(names)))
        return plans

    def _trial_seed(self, params: Dict[str, Any],
                    base_seed: Optional[int]) -> int:
        if base_seed is None:
            if self.seed_param is None:
                return 0
            return int(params.get(self.seed_param, 0))
        others = {key: value for key, value in params.items()
                  if key != self.seed_param}
        return derive_seed(base_seed, self.name, others)


@dataclass(frozen=True)
class TrialPlan:
    """One point of the expanded matrix, before execution."""

    spec_name: str
    params: Dict[str, Any]
    seed: int
    #: The axis names that vary across this run (for display/ids).
    varied: List[str]

    @property
    def trial_id(self) -> str:
        """Stable, filesystem-safe identity within one run."""
        if not self.varied:
            return self.spec_name
        parts = [f"{name}={self.params[name]}" for name in self.varied]
        safe = ",".join(parts).replace("/", "_").replace(" ", "")
        return f"{self.spec_name}[{safe}]"


def derive_seed(base_seed: int, spec_name: str,
                params: Mapping[str, Any]) -> int:
    """A 31-bit seed that is a pure function of its inputs.

    Stays in ``[1, 2**31)`` so every consumer (xorshift PRNGs, switch
    seeds, k_seed mixing) receives a small positive int, like the
    hand-picked reference seeds it replaces.
    """
    digest = content_hash({"base": int(base_seed), "spec": spec_name,
                           "params": params})
    return int(digest[:8], 16) % (2 ** 31 - 1) + 1


def parse_sweep(spec: ExperimentSpec,
                items: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse CLI ``--sweep k=v1,v2`` strings, coercing to the param type.

    The target type comes from the spec's default (or first grid value)
    for that parameter; booleans accept true/false/1/0, and a ``None``
    default (an optional count) accepts ``none`` or an int.  A repeated
    value is refused here: it would expand into two trials with one id,
    which the artifact writer rejects only after every trial has run.
    """
    sweep: Dict[str, List[Any]] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--sweep expects k=v1,v2,...  got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in spec.defaults:
            template = spec.defaults[key]
        elif key in spec.grid and len(spec.grid[key]):
            template = spec.grid[key][0]
        else:
            raise KeyError(f"{spec.name!r} has no parameter {key!r}")
        try:
            values = [_coerce(value.strip(), template)
                      for value in raw.split(",") if value.strip()]
        except ValueError as exc:
            raise ValueError(f"--sweep {key}={raw}: {exc}") from None
        if not values:
            raise ValueError(f"--sweep {key}= has no values")
        if len(set(values)) < len(values):
            raise ValueError(f"--sweep {key}={raw} repeats a value")
        sweep[key] = values
    return sweep


def _coerce(text: str, template: Any) -> Any:
    if isinstance(template, bool):
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    if template is None:
        if text.lower() == "none":
            return None
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"expected none or an int, got {text!r}") \
                from None
    if isinstance(template, str):
        return text
    raise ValueError(
        f"cannot sweep parameter of type {type(template).__name__}")


__all__ = [
    "ExperimentSpec",
    "TrialContext",
    "TrialPlan",
    "canonical_json",
    "claim",
    "derive_seed",
    "parse_sweep",
]
