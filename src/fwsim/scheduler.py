"""Phased timeline construction and the end-to-end simulator.

Each pivot round is a sequence of stages separated by barriers:

  pivot tile -> pivot broadcast -> pivot-row/column updates (concurrent
  across bank-groups, serialized within one) -> result broadcasts ->
  remaining-tile wavefront -> per-tile channel-PE reductions.

Tiles that share a bank-group serialize FIFO in a fixed row-major order;
broadcast fill events serialize on the TSV bus; steady-state pivot-vector
streams ride inside the tile events (counts always charged, cycles hidden
under compute when broadcast_overlap is on). Rounds never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConstraintViolation, GuardError
from .fw import TilePhase, fw_blocked, round_records
from .graphs import from_tile_major, to_tile_major
from .hbm import HbmConfig, map_tile_to_bank_group, validate_config
from .perf import (
    OpCounts,
    ZERO_COUNTS,
    broadcast_cost,
    cpe_reduction_cost,
    energy_of,
    tile_row_pass_cost,
    tile_update_cost,
)

# simulate_functional refuses matrices larger than this by default.
FUNCTIONAL_GUARD = 4096


class EventKind(Enum):
    PIVOT_FW = "pivot_fw"
    BROADCAST = "broadcast"
    ROW_COL_UPDATE = "row_col_update"
    REMAINING_UPDATE = "remaining_update"
    CPE_REDUCE = "cpe_reduce"


@dataclass(frozen=True)
class PhaseEvent:
    """One scheduled occupancy interval on a resource.

    resource is "bg:<id>" for bank-groups, "ch:<id>" for a channel's reducer
    and broadcast port, or "tsv" for the shared vertical bus. Events on the
    same resource never overlap in [start_cycle, end_cycle).
    """

    kind: EventKind
    k: int
    target: tuple[int, int] | None
    resource: str
    start_cycle: int
    end_cycle: int
    counts: OpCounts


@dataclass
class SimResult:
    """Totals of one simulated run. timeline() gives its events."""

    n: int
    block_size: int
    tiles_per_row: int
    total_cycles: int
    total_time_ps: int
    bulk_load_cycles: int
    counts: OpCounts
    energy: "object"
    per_bank_group_busy: list[int]

    @property
    def total_time_seconds(self) -> float:
        return self.total_time_ps * 1e-12


class _Builder:
    """Mutable scheduling state for one run: aggregate counters, plus the
    event list when events is a list (None aggregates only)."""

    def __init__(self, total_bank_groups: int, events: list[PhaseEvent] | None):
        self.events = events
        self.counts = ZERO_COUNTS
        self.busy = [0] * total_bank_groups
        self.max_end = 0

    def emit(self, kind, k, target, resource, start, cycles, counts) -> int:
        end = start + cycles
        if self.events is not None:
            self.events.append(
                PhaseEvent(kind, k, target, resource, start, end, counts)
            )
        self.counts = self.counts + counts
        if resource.startswith("bg:"):
            self.busy[int(resource[3:])] += cycles
        self.max_end = max(self.max_end, end)
        return end


@lru_cache(maxsize=16384)
def _vector_quote(src_bg: int, dst_bg: int, b: int, cfg: HbmConfig):
    """Memoized single-destination broadcast quote (hot path: one or two of
    these per tile update)."""
    return broadcast_cost(src_bg, (dst_bg,), b, cfg)


def _tile_event_cycles(b: int, step_cycles: int, vec_cycles: int, overlap: bool) -> int:
    """Makespan of one tile update whose b inner-product steps each consume a
    freshly broadcast pivot vector (vec_cycles per step, possibly two vectors
    merged). With overlap, step t+1's vector rides under step t's compute."""
    if vec_cycles == 0:
        return b * step_cycles
    if overlap:
        return b * max(step_cycles, vec_cycles)
    return b * (step_cycles + vec_cycles)


def _emit_round(builder: _Builder, k: int, m: int, b: int, cfg: HbmConfig,
                round_start: int, bank_group: dict) -> None:
    """Emit the events of pivot round k, starting no earlier than round_start.
    bank_group maps each tile to the bank-group that holds it."""
    g = cfg.bank_groups_per_channel
    records = round_records(k, m)
    pivot_bg = bank_group[k, k]

    # The pivot's in-tile FW is b dependent steps of b row-passes: the same
    # serialization as a tile update, so it is charged the same quote.
    update = tile_update_cost(b, cfg)
    step_cycles = b * tile_row_pass_cost(b, cfg).cycles
    overlap = cfg.pim.broadcast_overlap

    pivot_end = builder.emit(
        EventKind.PIVOT_FW, k, (k, k), f"bg:{pivot_bg}",
        round_start, update.cycles, update.counts,
    )

    p2 = [r for r in records if r.phase in (TilePhase.PIVOT_ROW, TilePhase.PIVOT_COL)]
    p3 = [r for r in records if r.phase is TilePhase.REMAINING]
    if not p2:
        return

    tsv_free = round_start
    chan_free: dict[int, int] = {}
    group_free: dict[int, int] = {}

    # Stage the pivot's first vector at every pivot-row/column holder.
    p2_groups = sorted({bank_group[r.target] for r in p2})
    fill = broadcast_cost(pivot_bg, p2_groups, b, cfg)
    bcast_end = builder.emit(
        EventKind.BROADCAST, k, (k, k), "tsv",
        max(pivot_end, tsv_free), fill.cycles, fill.counts,
    )
    tsv_free = bcast_end
    cpe = cpe_reduction_cost(g, cfg)

    def run_update(record, kind, start_floor):
        """Schedule one tile update, fed one pivot vector per step from each
        source other than the target, and its channel-PE reduction."""
        bg = bank_group[record.target]
        vec_quotes = [_vector_quote(bank_group[src], bg, b, cfg)
                      for src in record.sources if src != record.target]
        vec_cycles = sum(q.cycles for q in vec_quotes)
        stream = ZERO_COUNTS
        for q in vec_quotes:
            stream = stream + q.counts.scaled(b)
        cycles = _tile_event_cycles(b, step_cycles, vec_cycles, overlap)
        start = max(start_floor, group_free.get(bg, round_start))
        end = builder.emit(
            kind, k, record.target, f"bg:{bg}", start, cycles,
            update.counts + stream,
        )
        group_free[bg] = end
        ch = bg // g
        cstart = max(end, chan_free.get(ch, round_start))
        chan_free[ch] = builder.emit(
            EventKind.CPE_REDUCE, k, record.target, f"ch:{ch}",
            cstart, cpe.cycles, cpe.counts,
        )
        return bg, end

    # Phase 2: pivot-row and pivot-column tiles, concurrent across groups.
    p2_barrier = bcast_end
    for r in p2:
        bg, end = run_update(r, EventKind.ROW_COL_UPDATE, bcast_end)
        p2_barrier = max(p2_barrier, end)
        if p3:
            # Stage this tile's first result vector at its wavefront consumers.
            ti, tj = r.target
            if r.phase is TilePhase.PIVOT_ROW:
                consumers = {bank_group[i, tj] for i in range(m) if i != k}
            else:
                consumers = {bank_group[ti, j] for j in range(m) if j != k}
            f = broadcast_cost(bg, sorted(consumers), b, cfg)
            tsv_free = builder.emit(
                EventKind.BROADCAST, k, r.target, "tsv",
                max(end, tsv_free), f.cycles, f.counts,
            )
            p2_barrier = max(p2_barrier, tsv_free)

    # Phase 3: the remaining-tile wavefront, after every source is published.
    for r in p3:
        run_update(r, EventKind.REMAINING_UPDATE, p2_barrier)


def tiles_per_row(n: int, b: int) -> int:
    """Tiles per row of an n-vertex matrix cut into b x b tiles (n padded up)."""
    if n < 1 or b < 1:
        raise ConfigError(f"n and b must be >= 1, got n={n}, b={b}")
    return -(-n // b)


def _run(n: int, b: int, cfg: HbmConfig, enforce_wavefront: bool,
         events: list[PhaseEvent] | None) -> _Builder:
    """Validate, charge the bulk load, then chain the pivot rounds."""
    m = tiles_per_row(n, b)
    try:
        validate_config(cfg, m)
    except ConstraintViolation:
        if enforce_wavefront:
            raise
    builder = _Builder(cfg.total_bank_groups, events)
    bank_group = {(i, j): map_tile_to_bank_group(i, j, m, cfg.channels,
                                                 cfg.bank_groups_per_channel)
                  for i in range(m) for j in range(m)}
    start = 0
    if cfg.pim.bulk_load_cycles > 0:
        load_bits = (m * b) * (m * b) * cfg.pim.operand_bits
        start = builder.emit(
            EventKind.BROADCAST, -1, None, "tsv", 0,
            cfg.pim.bulk_load_cycles, OpCounts(tsv_bits=load_bits),
        )
    for k in range(m):
        _emit_round(builder, k, m, b, cfg, start, bank_group)
        start = builder.max_end
    return builder


def simulate(n: int, b: int, cfg: HbmConfig, *,
             enforce_wavefront: bool = True) -> SimResult:
    """Simulate blocked FW on an n-vertex graph with b x b tiles.

    Purely analytic: runtime scales with the number of tiles, not n^3.
    Deterministic: identical inputs produce identical results.
    """
    builder = _run(n, b, cfg, enforce_wavefront, None)
    total = builder.max_end
    return SimResult(
        n=n,
        block_size=b,
        tiles_per_row=tiles_per_row(n, b),
        total_cycles=total,
        total_time_ps=total * cfg.clock_period_ps,
        bulk_load_cycles=cfg.pim.bulk_load_cycles,
        counts=builder.counts,
        energy=energy_of(builder.counts, cfg.energy),
        per_bank_group_busy=builder.busy,
    )


def timeline(n: int, b: int, cfg: HbmConfig, *,
             enforce_wavefront: bool = True) -> list[PhaseEvent]:
    """Every event of the run that simulate() totals, in emission order."""
    return _run(n, b, cfg, enforce_wavefront, []).events


def simulate_functional(
    d: np.ndarray,
    b: int,
    cfg: HbmConfig,
    *,
    max_functional_n: int = FUNCTIONAL_GUARD,
    enforce_wavefront: bool = True,
) -> tuple[np.ndarray, SimResult]:
    """Run the blocked algorithm for values and the scheduler for timing on
    the same workload. Returns (distance matrix, SimResult)."""
    n = d.shape[0]
    if n > max_functional_n:
        raise GuardError(
            f"functional execution is guarded at n <= {max_functional_n} "
            f"(got {n}); use the timing-only simulate() for larger runs"
        )
    tiled = to_tile_major(d, b)
    result = simulate(n, b, cfg, enforce_wavefront=enforce_wavefront)
    return from_tile_major(fw_blocked(tiled), n), result


def utilization_report(result: SimResult) -> dict:
    """Per-bank-group busy fractions plus max/min/mean."""
    total = result.total_cycles
    if total == 0:
        fractions = [0.0] * len(result.per_bank_group_busy)
    else:
        fractions = [busy / total for busy in result.per_bank_group_busy]
    return {
        "per_bank_group": fractions,
        "max": max(fractions),
        "min": min(fractions),
        "mean": sum(fractions) / len(fractions),
    }
