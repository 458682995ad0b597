"""Tofino-like hardware resource accounting (reproduces Table II).

A :class:`ProgramSpec` is the declarative inventory of a compiled P4
program: tables (with sizes and match kinds), register arrays, hash-unit
invocations wired into the pipeline, and PHV containers claimed by headers
and metadata.  :class:`ResourceModel` prices each construct against
capacities abstracted from a single Tofino pipe and reports utilization
percentages for the four resources the paper tables: TCAM, SRAM, hash
units, and PHV.

Capacity abstraction (documented calibration, see DESIGN.md):

- **TCAM**: 288 blocks (24 blocks/stage x 12 stages); a ternary/LPM table
  costs ``ceil(key_bits/44) * ceil(entries/512)`` blocks.
- **SRAM**: 960 blocks of 128 Kbit (80 blocks/stage x 12 stages); exact
  tables, action data, and register arrays cost
  ``ceil(total_bits/131072)`` blocks each (minimum one block per array,
  matching hardware allocation granularity).
- **Hash units**: 72 (6/stage x 12 stages); each distinct hash computation
  wired into the pipeline claims units proportional to its input width.
- **PHV**: 216 32-bit containers; each header/metadata field claims
  ``ceil(bits/32)`` containers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

TCAM_BLOCKS = 288
SRAM_BLOCKS = 960
SRAM_BLOCK_BITS = 128 * 1024
HASH_UNITS = 72
PHV_CONTAINERS = 216

_TCAM_SLICE_BITS = 44
_TCAM_SLICE_ENTRIES = 512


@dataclass
class TableCost:
    name: str
    key_bits: int
    entries: int
    uses_tcam: bool
    action_data_bits: int = 32


@dataclass
class RegisterCost:
    name: str
    width_bits: int
    size: int


@dataclass
class HashCost:
    name: str
    units: int


@dataclass
class ResourceReport:
    """Utilization percentages, plus the raw block/unit counts behind them."""

    tcam_pct: float
    sram_pct: float
    hash_pct: float
    phv_pct: float
    tcam_blocks: int
    sram_blocks: int
    hash_units: int
    phv_containers: int


class ProgramSpec:
    """Declarative resource inventory of one compiled P4 program."""

    def __init__(self, name: str):
        self.name = name
        self._tables: List[TableCost] = []
        self._registers: List[RegisterCost] = []
        self._hashes: List[HashCost] = []
        self._phv_containers = 0

    def add_table(self, name: str, key_bits: int, entries: int,
                  uses_tcam: bool, action_data_bits: int = 32) -> "ProgramSpec":
        self._tables.append(
            TableCost(name, key_bits, entries, uses_tcam, action_data_bits)
        )
        return self

    def add_register(self, name: str, width_bits: int, size: int) -> "ProgramSpec":
        self._registers.append(RegisterCost(name, width_bits, size))
        return self

    def add_hash(self, name: str, units: int) -> "ProgramSpec":
        """Claim hash distribution units for one wired-in hash computation."""
        self._hashes.append(HashCost(name, units))
        return self

    def add_headers(self, name: str, bits: int) -> "ProgramSpec":
        """Claim PHV containers for a header or metadata group."""
        self._phv_containers += math.ceil(bits / 32)
        return self

    # -- cost computation --------------------------------------------------------

    def tcam_blocks(self) -> int:
        total = 0
        for t in self._tables:
            if t.uses_tcam:
                slices = math.ceil(t.key_bits / _TCAM_SLICE_BITS)
                depth = math.ceil(t.entries / _TCAM_SLICE_ENTRIES)
                total += slices * depth
        return total

    def sram_blocks(self) -> int:
        total = 0
        for t in self._tables:
            if t.uses_tcam:
                # TCAM tables keep their action data in SRAM.
                bits = t.entries * t.action_data_bits
            else:
                bits = t.entries * (t.key_bits + t.action_data_bits)
            total += max(1, math.ceil(bits / SRAM_BLOCK_BITS))
        for r in self._registers:
            total += max(1, math.ceil(r.width_bits * r.size / SRAM_BLOCK_BITS))
        return total

    def hash_units(self) -> int:
        base = 0
        for t in self._tables:
            if not t.uses_tcam:
                # Exact-match tables hash their key for SRAM placement.
                base += max(1, math.ceil(t.key_bits / 128))
        return base + sum(h.units for h in self._hashes)

    def phv_containers(self) -> int:
        return self._phv_containers


class ResourceModel:
    """Prices a :class:`ProgramSpec` against the abstract Tofino pipe."""

    def report(self, spec: ProgramSpec) -> ResourceReport:
        tcam = spec.tcam_blocks()
        sram = spec.sram_blocks()
        hashes = spec.hash_units()
        phv = spec.phv_containers()
        for used, capacity, label in (
            (tcam, TCAM_BLOCKS, "TCAM"),
            (sram, SRAM_BLOCKS, "SRAM"),
            (hashes, HASH_UNITS, "hash units"),
            (phv, PHV_CONTAINERS, "PHV"),
        ):
            if used > capacity:
                raise RuntimeError(
                    f"program {spec.name!r} does not fit: {label} "
                    f"{used}/{capacity}"
                )
        return ResourceReport(
            tcam_pct=round(100.0 * tcam / TCAM_BLOCKS, 1),
            sram_pct=round(100.0 * sram / SRAM_BLOCKS, 1),
            hash_pct=round(100.0 * hashes / HASH_UNITS, 1),
            phv_pct=round(100.0 * phv / PHV_CONTAINERS, 1),
            tcam_blocks=tcam,
            sram_blocks=sram,
            hash_units=hashes,
            phv_containers=phv,
        )
