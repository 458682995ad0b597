"""Discrete event-driven network substrate.

Replaces the paper's physical testbed (Tofino switch, PTF generator, BMv2
mininet) with a simulated network: a heap-based event scheduler, links
with propagation latency and taps (where on-link MitM adversaries attach),
switch/host/controller nodes, and a calibrated cost model whose constants
are documented in DESIGN.md.
"""
