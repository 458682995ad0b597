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
