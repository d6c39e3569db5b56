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

import numpy as np

from .errors import ConfigError, ConstraintViolation, GuardError
from .fw import TilePhase, fw_blocked, round_records
from .graphs import from_tile_major, to_tile_major
from .hbm import HbmConfig, map_tile_to_bank_group, validate_config
from .perf import (
    EnergyBreakdown,
    OpCounts,
    broadcast_cost,
    cpe_reduction_cost,
    energy_of,
    tile_row_pass_cost,
    tile_update_cost,
)

# simulate_functional refuses matrices larger than this.
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
    energy: EnergyBreakdown
    per_bank_group_busy: list[int]

    @property
    def total_time_seconds(self) -> float:
        try:
            return self.total_time_ps * 1e-12
        except OverflowError:
            raise ConfigError("the simulated time in seconds overflows a float") from None


def tiles_per_row(n: int, b: int) -> int:
    """Tiles per row of an n-vertex matrix cut into b x b tiles (n padded up)."""
    if n < 1 or b < 1:
        raise ConfigError(f"n and b must be >= 1, got n={n}, b={b}")
    return -(-n // b)


def _run(n: int, b: int, cfg: HbmConfig, enforce_wavefront: bool,
         events: list[PhaseEvent] | None) -> SimResult:
    """Validate, charge the bulk load, then chain the pivot rounds, each
    starting when the previous one's last event ends. Every event is appended
    to events when it is a list.

    Every tile update, the pivot's in-tile FW included, charges the
    tile_update_cost quote, and every other update one channel-PE reduction:
    the counts are those quotes times m^3 and m^3 - m, plus the TSV bits of
    the bulk load, the broadcast fills and the pivot-vector streams.
    """
    m = tiles_per_row(n, b)
    try:
        validate_config(cfg, m)
    except ConstraintViolation:
        if enforce_wavefront:
            raise
    g = cfg.bank_groups_per_channel
    bank_group = {(i, j): map_tile_to_bank_group(i, j, m, cfg.channels, g)
                  for i in range(m) for j in range(m)}
    # The pivot's in-tile FW is b dependent steps of b row-passes: the same
    # serialization as a tile update, so it is charged the same quote.
    update = tile_update_cost(b, cfg)
    cpe = cpe_reduction_cost(g, cfg)
    step_cycles = b * tile_row_pass_cost(b, cfg).cycles
    overlap = cfg.pim.broadcast_overlap
    # Single-destination pivot-vector quotes, keyed by (source, target group).
    vector_quotes = {}
    busy = [0] * cfg.total_bank_groups
    tsv_bits = 0

    start = cfg.pim.bulk_load_cycles
    if start > 0:
        tsv_bits = (m * b) * (m * b) * cfg.pim.operand_bits
        if events is not None:
            events.append(PhaseEvent(EventKind.BROADCAST, -1, None, "tsv", 0, start,
                                     OpCounts(tsv_bits=tsv_bits)))
    for k in range(m):
        pivot, *updates = round_records(k, m)
        pivot_bg = bank_group[pivot.target]
        pivot_end = start + update.cycles
        busy[pivot_bg] += update.cycles
        if events is not None:
            events.append(PhaseEvent(EventKind.PIVOT_FW, k, pivot.target,
                                     f"bg:{pivot_bg}", start, pivot_end, update.counts))
        if not updates:
            start = pivot_end
            continue

        # Stage the pivot's first vector at every pivot-row/column holder.
        fill = broadcast_cost(pivot_bg, {bank_group[r.target] for r in updates
                                         if r.phase is not TilePhase.REMAINING}, b, cfg)
        fill_end = tsv_free = pivot_end + fill.cycles
        tsv_bits += fill.counts.tsv_bits
        if events is not None:
            events.append(PhaseEvent(EventKind.BROADCAST, k, pivot.target, "tsv",
                                     pivot_end, fill_end, fill.counts))
        group_free: dict[int, int] = {}
        chan_free: dict[int, int] = {}
        # Pivot-row and pivot-column tiles start after the fill, concurrent
        # across bank-groups; the remaining-tile wavefront starts once the last
        # of their result vectors is published on the TSV bus.
        for r in updates:
            wavefront = r.phase is TilePhase.REMAINING
            bg = bank_group[r.target]
            vec_cycles = vec_bits = 0
            for src in r.sources:
                if src != r.target:
                    key = (bank_group[src], bg)
                    q = vector_quotes.get(key)
                    if q is None:
                        q = vector_quotes[key] = broadcast_cost(key[0], (bg,), b, cfg)
                    vec_cycles += q.cycles
                    vec_bits += b * q.counts.tsv_bits
            # Each of the b inner-product steps consumes a freshly broadcast
            # vector from each source; with overlap, step t+1's vectors ride
            # under step t's compute.
            cycles = b * (max(step_cycles, vec_cycles) if overlap
                          else step_cycles + vec_cycles)
            tile_start = max(tsv_free if wavefront else fill_end,
                             group_free.get(bg, start))
            end = group_free[bg] = tile_start + cycles
            busy[bg] += cycles
            tsv_bits += vec_bits
            ch = bg // g
            cpe_start = max(end, chan_free.get(ch, start))
            chan_free[ch] = cpe_start + cpe.cycles
            if events is not None:
                kind = EventKind.REMAINING_UPDATE if wavefront else EventKind.ROW_COL_UPDATE
                events.append(PhaseEvent(kind, k, r.target, f"bg:{bg}", tile_start, end,
                                         update.counts + OpCounts(tsv_bits=vec_bits)))
                events.append(PhaseEvent(EventKind.CPE_REDUCE, k, r.target, f"ch:{ch}",
                                         cpe_start, chan_free[ch], cpe.counts))
            if wavefront:
                continue
            # Stage this tile's first result vector at its wavefront consumers.
            ti, tj = r.target
            if r.phase is TilePhase.PIVOT_ROW:
                consumers = {bank_group[i, tj] for i in range(m) if i != k}
            else:
                consumers = {bank_group[ti, j] for j in range(m) if j != k}
            f = broadcast_cost(bg, consumers, b, cfg)
            f_start = max(end, tsv_free)
            tsv_free = f_start + f.cycles
            tsv_bits += f.counts.tsv_bits
            if events is not None:
                events.append(PhaseEvent(EventKind.BROADCAST, k, r.target, "tsv",
                                         f_start, tsv_free, f.counts))
        # The round ends with its last broadcast or channel-PE reduction.
        start = max(tsv_free, *chan_free.values())

    counts = (update.counts.scaled(m ** 3) + cpe.counts.scaled(m ** 3 - m)
              + OpCounts(tsv_bits=tsv_bits))
    return SimResult(
        n=n,
        block_size=b,
        tiles_per_row=m,
        total_cycles=start,
        total_time_ps=start * cfg.clock_period_ps,
        bulk_load_cycles=cfg.pim.bulk_load_cycles,
        counts=counts,
        energy=energy_of(counts, cfg.energy),
        per_bank_group_busy=busy,
    )


def simulate(n: int, b: int, cfg: HbmConfig, *,
             enforce_wavefront: bool = True) -> SimResult:
    """Simulate blocked FW on an n-vertex graph with b x b tiles.

    Purely analytic: runtime scales with the number of tiles, not n^3.
    Deterministic: identical inputs produce identical results.
    """
    return _run(n, b, cfg, enforce_wavefront, None)


def timeline(n: int, b: int, cfg: HbmConfig, *,
             enforce_wavefront: bool = True) -> list[PhaseEvent]:
    """Every event of the run that simulate() totals, in emission order."""
    events: list[PhaseEvent] = []
    _run(n, b, cfg, enforce_wavefront, events)
    return events


def simulate_functional(
    d: np.ndarray,
    b: int,
    cfg: HbmConfig,
    *,
    enforce_wavefront: bool = True,
) -> tuple[np.ndarray, SimResult]:
    """Run the blocked algorithm for values and the scheduler for timing on
    the same workload. Returns (distance matrix, SimResult)."""
    n = d.shape[0]
    if n > FUNCTIONAL_GUARD:
        raise GuardError(
            f"functional execution is guarded at n <= {FUNCTIONAL_GUARD} "
            f"(got {n}); use the timing-only simulate() for larger runs"
        )
    tiled = to_tile_major(d, b)
    result = simulate(n, b, cfg, enforce_wavefront=enforce_wavefront)
    return from_tile_major(fw_blocked(tiled), n), result


def utilization_report(result: SimResult) -> dict:
    """Per-bank-group busy fractions plus max/min/mean."""
    fractions = [busy / result.total_cycles for busy in result.per_bank_group_busy]
    return {
        "per_bank_group": fractions,
        "max": max(fractions),
        "min": min(fractions),
        "mean": sum(fractions) / len(fractions),
    }
