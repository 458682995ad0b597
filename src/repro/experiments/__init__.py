"""Experiment drivers: one module per paper table/figure.

Each driver builds the full scenario (topology, victim system, P4Auth,
adversary), runs the simulation, and returns a structured result, and
each registers an :class:`~repro.engine.spec.ExperimentSpec` with the
engine registry.  That spec is the one way a measurement runs:
``repro.engine.run_experiment(name)`` from code (what ``benchmarks/``
and ``examples/reproduce_paper.py`` do) and ``python -m repro run
<name>`` from the shell.  The per-mode builder functions
(``run_hula``, ``run_kmp_rtt``, ...) are what the specs' trial
functions call; tests import them from their modules to check a single
scenario's shape.
"""
