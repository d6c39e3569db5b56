"""Closed-form cycle and energy costs of the primitive hardware actions.

The unit of work is a "row-pass": one min-plus sweep over one b-element tile
row inside a bank-group. The group's PEs chew through the row in
ceil(b / bpes_per_bank_group) hardware passes. The activation latency and the
fixed per-row-pass setup are paid once per row-pass (re-activations pipeline
under compute, subject to the t_RC floor); the bit-serial compute and the
write-back are paid per pass. Activation COUNTS accrue per pass: each pass
re-latches its operand slices.

A full tile update is b inner-product steps of b row-passes each, all
serialized on the owning bank-group; the pivot tile's in-tile sweep has the
same shape (its k-dependency forbids anything faster), so both cost b^2
row-passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from operator import add

from .errors import ConfigError
from .hbm import EnergyParams, HbmConfig


@dataclass(frozen=True)
class OpCounts:
    """Additive event counters used for energy accounting and invariants.
    vars() holds the fields in declaration order, without astuple's copies."""

    row_activations: int = 0
    bits_read: int = 0
    bits_written: int = 0
    bpe_cycles: int = 0
    cpe_cycles: int = 0
    tsv_bits: int = 0
    minplus_ops: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(*map(add, vars(self).values(), vars(other).values()))

    def scaled(self, times: int) -> "OpCounts":
        return OpCounts(*(value * times for value in vars(self).values()))


@dataclass(frozen=True)
class CostQuote:
    """Cycles plus counters for one hardware event.

    Counts compose by addition; cycles compose per the scheduler's
    serialization rules, never by blind summation across resources.
    """

    cycles: int
    counts: OpCounts


def bpe_minplus_cycles(operand_bits: int, add_passes: int = 2) -> int:
    """Bank-PE latency of one min-plus op: add_passes bit-serial sweeps over
    the operand width (default: one pass for the sum, one for compare/select).
    """
    if operand_bits < 1 or add_passes < 1:
        raise ValueError("operand_bits and add_passes must be >= 1")
    return add_passes * operand_bits


def row_pass_count(b: int, cfg: HbmConfig) -> int:
    """Hardware passes needed for one b-element tile row: ceil(b / PEs)."""
    return -(-b // cfg.bpes_per_bank_group)


def tile_row_pass_cost(b: int, cfg: HbmConfig) -> CostQuote:
    """One min-plus sweep over one b-element tile row inside a bank-group.

    Per element: two in-bank operand reads plus one broadcast-register read
    (3 x operand_bits read), one result write-back.
    """
    if b < 1:
        raise ValueError("tile width must be >= 1")
    pim = cfg.pim
    passes = row_pass_count(b, cfg)
    act_cycles = cfg.cycles_from_ns(cfg.timing.t_rcd + cfg.timing.t_ras)
    compute = bpe_minplus_cycles(pim.operand_bits, pim.add_passes)
    wr_cycles = cfg.cycles_from_ns(cfg.timing.t_wr)
    cycles = pim.row_pass_setup_cycles + act_cycles + passes * (compute + wr_cycles)
    cycles = max(cycles, cfg.cycles_from_ns(cfg.timing.t_rc))
    counts = OpCounts(
        row_activations=passes,
        bits_read=3 * pim.operand_bits * b,
        bits_written=pim.operand_bits * b,
        bpe_cycles=compute * b,
        minplus_ops=b,
    )
    return CostQuote(cycles=cycles, counts=counts)


def tile_update_cost(b: int, cfg: HbmConfig) -> CostQuote:
    """One full min-plus tile update: b inner-product steps, each a row-pass
    over all b rows, serialized on the owning bank-group (b^3 ops total)."""
    row = tile_row_pass_cost(b, cfg)
    return CostQuote(cycles=b * b * row.cycles, counts=row.counts.scaled(b * b))


def cpe_reduction_cost(fan_in: int, cfg: HbmConfig) -> CostQuote:
    """Channel-PE comparison tree across fan_in inputs."""
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    pim = cfg.pim
    cycles = pim.cpe_base_cycles + ceil(log2(fan_in)) * pim.cpe_stage_cycles
    return CostQuote(cycles=cycles, counts=OpCounts(cpe_cycles=cycles))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per accounting category, integer femtojoules (exact sums)."""

    activation_fj: int = 0
    dram_rw_fj: int = 0
    bpe_fj: int = 0
    cpe_fj: int = 0
    tsv_fj: int = 0

    @property
    def total_fj(self) -> int:
        return sum(vars(self).values())

    @property
    def total_joules(self) -> float:
        try:
            return self.total_fj * 1e-15
        except OverflowError:
            raise ConfigError("the energy in joules overflows a float") from None

    def as_dict(self) -> dict:
        return {**vars(self), "total_fj": self.total_fj}


def energy_of(counts: OpCounts, e: EnergyParams) -> EnergyBreakdown:
    """Fold event counters into the energy categories (integer femtojoules)."""
    return EnergyBreakdown(
        activation_fj=counts.row_activations * e.fj("e_activate_pj"),
        dram_rw_fj=(counts.bits_read * e.fj("e_read_bit_pj")
                    + counts.bits_written * e.fj("e_write_bit_pj")),
        bpe_fj=counts.bpe_cycles * e.fj("e_bpe_cycle_pj"),
        cpe_fj=counts.cpe_cycles * e.fj("e_cpe_cycle_pj"),
        tsv_fj=counts.tsv_bits * e.fj("e_tsv_bit_pj"),
    )
