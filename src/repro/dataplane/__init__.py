"""PISA-style programmable switch simulator.

This package is the substitute for the paper's BMv2/Tofino targets: a
multi-stage match-action pipeline with registers, tables, hash externs, a
restricted ALU, and a Tofino-like resource model.  Victim systems (HULA,
RouteScout, ...) and P4Auth itself are written as pipelines over this
substrate, so the data-plane feasibility constraints the paper leans on
(no loops, limited per-packet ops, hash units as the only crypto) are
enforced structurally rather than assumed.
"""
