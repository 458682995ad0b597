"""Experiment specs: one module per paper table/figure.

Each module registers an :class:`~repro.engine.spec.ExperimentSpec`
with the engine registry, and that spec's trial function is the
experiment: it reads its parameters from ``ctx.params``, builds the
scenario (topology, victim system, P4Auth, adversary), runs the
simulation and returns the trial's result dict; the spec's ``claims``
judge the finished run against the paper.  There is no second entry
point: ``repro.engine.runner.run_experiment(name)`` from code (what
``examples/`` and the tests do) and ``python -m repro run <name>`` from
the shell.
"""
