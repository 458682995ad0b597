"""The declarative experiment engine.

Every paper figure/table and chaos scenario is described once as an
:class:`~repro.engine.spec.ExperimentSpec` (parameter grid, per-trial
seed derivation, trial function) registered in a single catalog
(:mod:`repro.engine.registry`).  The :class:`~repro.engine.runner.Runner`
expands a spec into a deterministic trial matrix and executes every
trial — serially or sharded across worker processes — emitting one
canonical, schema-versioned
``BENCH_<name>.json`` artifact per run (:mod:`repro.engine.artifact`).

Entry points: ``python -m repro run <name> [--sweep k=v1,v2] [--workers
N]`` on the command line, :func:`~repro.engine.runner.run_experiment`
programmatically.  Parallel and serial runs of the same matrix are
bit-identical outside ``run_meta`` (see DESIGN.md "Experiment engine").
"""

from repro.engine.canon import (
    SCHEMA,
    canonical_json,
    content_hash,
    to_jsonable,
)
from repro.engine.spec import (
    ExperimentSpec,
    TrialContext,
    TrialPlan,
    derive_seed,
    parse_sweep,
)
from repro.engine.registry import (
    CATALOG_MODULES,
    all_specs,
    get_spec,
    load_catalog,
    register,
    spec_names,
    unregister,
)
from repro.engine.artifact import (
    artifact_path,
    build_artifact,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.engine.runner import (
    RunResult,
    Runner,
    TrialRecord,
    execute_trial,
    run_experiment,
)

__all__ = [
    "CATALOG_MODULES",
    "ExperimentSpec",
    "RunResult",
    "Runner",
    "SCHEMA",
    "TrialContext",
    "TrialPlan",
    "TrialRecord",
    "all_specs",
    "artifact_path",
    "build_artifact",
    "canonical_json",
    "content_hash",
    "derive_seed",
    "execute_trial",
    "get_spec",
    "load_artifact",
    "load_catalog",
    "parse_sweep",
    "register",
    "run_experiment",
    "spec_names",
    "to_jsonable",
    "unregister",
    "validate_artifact",
    "write_artifact",
]
