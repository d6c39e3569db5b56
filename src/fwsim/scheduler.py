"""Phased timeline construction and the end-to-end simulator.

Each pivot round is a sequence of stages separated by barriers:

  pivot tile -> pivot broadcast -> pivot-row/column updates (concurrent
  across bank-groups, serialized within one) -> result broadcasts ->
  remaining-tile wavefront -> per-tile channel-PE reductions.

Tiles that share a bank-group serialize FIFO in emission order (pivot row,
pivot column, then the wavefront row-major); broadcast fill events serialize
on the TSV bus; steady-state pivot-vector streams ride inside the tile events
(counts always charged, cycles hidden under compute when broadcast_overlap is
on). Rounds never overlap.

timeline() returns the run as one EVENT record array. Each record is an
occupancy interval [start, end) of round k on one unit of its kind's resource:
the bank-group for the pivot and updates, the channel for CPE_REDUCE, and 0,
the TSV bus, for broadcasts. The target tile is (i, j); the bulk load, first
when it takes cycles, has k = i = j = -1. Each round emits its pivot, its
fill, per row or column tile the update, reduction and result broadcast, then
per wavefront tile the update and reduction. An event's counts are its kind's
quote plus its tsv_bits: tile_update_cost for the pivot and both update kinds,
cpe_reduction_cost for reductions, and nothing for broadcasts.

No resource is busy when a round starts and every stage waits for the one
before it, so every time in a round is an offset from its start and a round's
length does not depend on when it starts. Rounds are therefore built in groups
of consecutive pivots, each group a few array operations over its
(rounds, m^2 - 1) updates in emission order, times as offsets. Per-resource
scans run on the composite key round * width + bank-group, width being the
bank-groups of the channels that hold tiles, so one scan serves every round
of a group and key // g is the channel:

  row/column ends      fill_end + a per-bank-group cumsum of durations
  result broadcasts    the TSV chain x_i = max(x_{i-1}, e_i) + f_i from
                       x_0 = fill_end is S_i + max(fill_end,
                       max_{q<=i}(e_q - S_{q-1})), S = cumsum(f); its end T
                       follows every row/column end and frees the wavefront
  wavefront ends       T + a per-bank-group cumsum of durations
  channel-PE chain     a channel's p-th reduction, C cycles each, ends at
                       (p + 1) C + max_{q<=p}(e_q - q C)
  vector streams       max(1, [channel differs] + [position differs]) steps
  fill/result fan-out  one step to cross channels plus one per bank-group
                       past the entry point, counted on a (round, broadcast,
                       channel, position) mask of destinations
  round starts         the bulk load plus an exclusive cumsum of round
                       lengths, each its last broadcast or reduction end

tests/reference_scheduler.py schedules tile by tile; it is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, ConstraintViolation, GuardError
from .fw import fw_blocked
from .graphs import from_tile_major, to_tile_major
from .hbm import HbmConfig, validate_config
from .perf import (
    EnergyBreakdown,
    OpCounts,
    cpe_reduction_cost,
    energy_of,
    tile_row_pass_cost,
    tile_update_cost,
)

# simulate_functional refuses matrices larger than this.
FUNCTIONAL_GUARD = 4096

# simulate and timeline refuse more tiles per row than this: their cost grows
# as m^3, 0.26 s at m = 128 and 2.3 s at m = 256 on a 2-core Xeon.
TIMING_GUARD = 1024

# Pivot rounds are built in groups of at most this many tile updates or
# destination bank-groups a round (at least one round): enough to amortize
# numpy's per-call cost over several rounds, few enough to keep a group's
# temporaries small.
_GROUP_UPDATES = 8192


class EventKind(IntEnum):
    PIVOT_FW = 0
    BROADCAST = 1
    ROW_COL_UPDATE = 2
    REMAINING_UPDATE = 3
    CPE_REDUCE = 4


# One event of timeline(), as the module docstring describes it.
EVENT = np.dtype([("kind", np.int8)] + [(name, np.int64) for name in
                                         ("k", "i", "j", "unit", "start", "end", "tsv_bits")])


@dataclass
class SimResult:
    """Totals of one simulated run; timeline() gives the same run's events."""

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


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each element's count of earlier elements with the same key, in
    row-major order. Keys are composite, round * stride + bank-group or
    channel, one round per row. A stable radix sort through a uint16 cast
    orders them even past 2^16: a round's bank-groups or channels (at most
    MAX_BANK_GROUPS = 2^16) differ mod 2^16, and keys that share a residue
    come from different rounds, which the stable sort keeps in row order."""
    flat = keys.ravel()
    order = np.argsort(flat.astype(np.uint16), kind="stable")
    idx = np.arange(len(flat))
    first = np.r_[True, np.diff(flat[order]) != 0]
    ranks = np.empty_like(idx)
    ranks[order] = idx - np.maximum.accumulate(np.where(first, idx, 0))
    return ranks.reshape(keys.shape)


def _scan(op: np.ufunc, keys: np.ndarray, ranks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """op.accumulate of values over the elements that share a key, in order:
    the rows of a (key, rank) grid, read no further than each key's last rank."""
    grid = np.zeros((keys.max() + 1, ranks.max() + 1), dtype=np.int64)
    grid[keys, ranks] = values
    return op.accumulate(grid, axis=1)[keys, ranks]


def _order(shape, pivot, broadcast, update, reduce) -> np.ndarray:
    """One EVENT field of a group of rounds in emission order (see above).
    shape is (rounds, row/column tiles, updates); the values broadcast to
    (rounds, 1) for the pivot, (rounds, 1 + row/column tiles) for the fill
    and result broadcasts, and (rounds, updates) for updates and reductions."""
    rounds, rc, updates = shape
    pivot = np.broadcast_to(pivot, (rounds, 1))
    broadcast = np.broadcast_to(broadcast, (rounds, 1 + rc))
    update, reduce = (np.broadcast_to(a, (rounds, updates)) for a in (update, reduce))
    per_tile = [np.stack([update[:, :rc], reduce[:, :rc], broadcast[:, 1:]], axis=2),
                np.stack([update[:, rc:], reduce[:, rc:]], axis=2)]
    return np.concatenate([pivot, broadcast[:, :1]] + [t.reshape(rounds, -1) for t in per_tile],
                          axis=1).ravel()


def _run(n: int, b: int, cfg: HbmConfig, enforce_wavefront: bool,
         keep_events: bool) -> tuple[SimResult, np.ndarray | None]:
    """Validate, charge the bulk load, then chain the pivot rounds, each
    starting when the previous one's last event ends. With keep_events, each
    group of rounds fills its slice of one preallocated EVENT array, field by field.

    Every tile update, the pivot's in-tile FW included, charges the
    tile_update_cost quote, and every other update one channel-PE reduction:
    the counts are those quotes times m^3 and m^3 - m, plus the TSV bits of
    the bulk load, the broadcast fills and the pivot-vector streams.
    """
    m = tiles_per_row(n, b)
    if m > TIMING_GUARD:
        raise GuardError(f"the timing model is guarded at m <= {TIMING_GUARD} tiles per row "
                         f"(n={n} at b={b} gives m={m}); its cost grows as m^3")
    try:
        validate_config(cfg, m)
    except ConstraintViolation:
        if enforce_wavefront:
            raise
    g = cfg.bank_groups_per_channel
    # The pivot's in-tile FW is b dependent steps of b row-passes: the same
    # serialization as a tile update, so it is charged the same quote.
    update = tile_update_cost(b, cfg)
    cpe = cpe_reduction_cost(g, cfg)
    step_cycles = b * tile_row_pass_cost(b, cfg).cycles
    beats = -(-b * cfg.pim.operand_bits // cfg.dq_bits)
    vector_bits = b * cfg.pim.operand_bits
    # int64 holds a round's offsets and TSV bits, and the busy sums: a round
    # lasts no longer than its events back to back (broadcasts <= g steps, two
    # streams <= 2 steps per update) nor moves more bits than if all crossed.
    round_bound = max(
        update.cycles + (2 * m - 1) * g * beats
        + m * m * (b * (step_cycles + 4 * beats) + cpe.cycles),
        vector_bits * ((2 * m - 1) * cfg.channels + 2 * b * m * m))
    if cfg.pim.bulk_load_cycles + m * round_bound > (1 << 63) - 1:
        raise ConfigError(f"n={n} with b={b} can exceed 2^63 - 1 cycles or TSV bits, "
                          "the scheduler's int64 range")
    # Tile (i, j) lives on bank-group (i * m + j) mod the bank-group count.
    bank_group = np.arange(m * m).reshape(m, m) % cfg.total_bank_groups
    busy = np.zeros(cfg.total_bank_groups, dtype=np.int64)
    width = -(-min(cfg.total_bank_groups, m * m) // g) * g  # the channels holding tiles
    rc = 2 * (m - 1)
    j = np.arange(m - 1)
    rows = np.arange(2 * m - 1)
    tsv_bits = 0

    def streams(src, dst):
        """Cycles and TSV bits of the b vectors one update streams from src."""
        cross = src // g != dst // g
        return (np.maximum(1, cross + (src % g != dst % g).astype(np.int64)) * beats,
                cross * (b * vector_bits))

    start = cfg.pim.bulk_load_cycles
    # A round's events: pivot, fill, 3 per row/column tile, 2 per wavefront tile.
    per_round = 2 + 3 * rc + 2 * (m - 1) ** 2 if m > 1 else 1
    events = np.empty((start > 0) + m * per_round, dtype=EVENT) if keep_events else None
    at = int(start > 0)  # the events written
    if start > 0:
        tsv_bits = (m * b) * (m * b) * cfg.pim.operand_bits
        if events is not None:
            events[0] = (EventKind.BROADCAST, -1, -1, -1, 0, 0, start, tsv_bits)
    if m == 1:  # one round, its pivot tile alone; the groups below need updates
        busy[0] = update.cycles
        if events is not None:
            events[at] = (EventKind.PIVOT_FW, 0, 0, 0, 0, start, start + update.cycles, 0)
        start += update.cycles
    group = max(1, _GROUP_UPDATES // max(m * m, width))
    for k0 in range(0, m if m > 1 else 0, group):
        ks = np.arange(k0, min(k0 + group, m))
        kk = np.arange(len(ks))[:, None]
        pivot_bg = bank_group[ks, ks]
        np.add.at(busy, pivot_bg, update.cycles)

        # Emission order: pivot row, pivot column, wavefront. A row or column tile
        # streams the pivot's vectors; wavefront tile (i, j), (i, k)'s and (k, j)'s.
        others = j + (j >= ks[:, None])  # each round's tiles but k
        row_bg, col_bg = bank_group[ks[:, None], others], bank_group[others, ks[:, None]]
        wave_bg = bank_group[others[:, :, None], others[:, None, :]]
        bgs = np.concatenate([row_bg, col_bg, wave_bg.reshape(len(ks), -1)], axis=1)
        vec, vec_bits = streams(pivot_bg[:, None], bgs[:, :rc])
        from_col, col_bits = streams(col_bg[:, :, None], wave_bg)
        from_row, row_bits = streams(row_bg[:, None, :], wave_bg)
        vec = np.concatenate([vec, (from_col + from_row).reshape(len(ks), -1)], axis=1)
        vec_bits = np.concatenate([vec_bits, (col_bits + row_bits).reshape(len(ks), -1)],
                                  axis=1)
        # Each of the b inner-product steps consumes a freshly broadcast
        # vector from each source; with overlap, step t+1's vectors ride
        # under step t's compute.
        cycles = b * (np.maximum(step_cycles, vec) if cfg.pim.broadcast_overlap
                      else step_cycles + vec)
        np.add.at(busy, bgs.ravel(), cycles.ravel())

        # Broadcast 0 stages the pivot's first vector at the row/column tiles,
        # broadcast 1 + t row/column tile t's first result vector at its
        # consumers: wavefront column j for row tile j, row i for column tile i.
        dst = np.zeros((len(ks), 2 * m - 1, width), dtype=bool)
        dst[kk, 0, bgs[:, :rc]] = True
        dst[kk[:, :, None], 1 + j, wave_bg] = True
        dst[kk[:, :, None], m + j[:, None], wave_bg] = True
        src = np.concatenate([pivot_bg[:, None], bgs[:, :rc]], axis=1)
        fan = dst.reshape(len(ks), 2 * m - 1, width // g, g)
        per_channel = fan.sum(axis=3)
        hops = (per_channel - fan[kk, rows, :, src % g]).max(axis=2)
        reached = per_channel > 0
        crossings = reached.sum(axis=2) - reached[kk, rows, src // g]
        bcast = np.maximum(1, (crossings > 0) + hops) * beats
        tsv_bits += int(crossings.sum()) * vector_bits + int(vec_bits.sum())

        # Row and column tiles start after the fill; the wavefront once the
        # last of their result vectors is published on the TSV bus. Scans run
        # per round and resource on the key round * width + bank-group, whose
        # channel is key // g.
        key = kk * width + bgs
        fill_end = update.cycles + bcast[:, :1]
        ends = fill_end + _scan(np.add, key[:, :rc], _ranks(key[:, :rc]), cycles[:, :rc])
        sent = np.cumsum(bcast, axis=1)
        bcast_ends = sent + np.maximum.accumulate(
            np.concatenate([np.full_like(fill_end, update.cycles), ends], axis=1)
            - sent + bcast, axis=1)
        released = bcast_ends[:, -1:]
        wave = key[:, rc:]
        ends = np.concatenate([ends, released + _scan(np.add, wave, _ranks(wave), cycles[:, rc:])],
                              axis=1)
        ch = key // g
        p = _ranks(ch)
        cpe_ends = (p + 1) * cpe.cycles + _scan(np.maximum, ch, p, ends - p * cpe.cycles)
        # The round ends with its last broadcast or channel-PE reduction; no
        # resource is busy when the next one starts.
        lengths = np.maximum(released[:, 0], cpe_ends.max(axis=1))
        starts = start + np.cumsum(lengths) - lengths
        start += int(lengths.sum())
        if events is not None:
            # Each update's target tile i * m + j; the fill's is the pivot's.
            k, s, shape = ks[:, None], starts[:, None], (len(ks), rc, bgs.shape[1])
            inner = (others[:, :, None] * m + others[:, None]).reshape(len(ks), -1)
            tiles = np.concatenate([k * m + others, others * m + k, inner], axis=1)
            kind = np.where(np.arange(shape[2]) < rc, EventKind.ROW_COL_UPDATE,
                            EventKind.REMAINING_UPDATE)
            rec = events[at:at + len(ks) * per_round]
            at += len(rec)
            rec["kind"] = _order(shape, EventKind.PIVOT_FW, EventKind.BROADCAST, kind,
                                 EventKind.CPE_REDUCE)
            rec["k"] = _order(shape, k, k, k, k)
            rec["i"], rec["j"] = np.divmod(
                _order(shape, k * (m + 1), np.c_[k * (m + 1), tiles[:, :rc]], tiles, tiles), m)
            rec["unit"] = _order(shape, pivot_bg[:, None], 0, bgs, bgs // g)
            rec["start"] = _order(shape, s, s + bcast_ends - bcast, s + ends - cycles,
                                  s + cpe_ends - cpe.cycles)
            rec["end"] = _order(shape, s + update.cycles, s + bcast_ends, s + ends, s + cpe_ends)
            rec["tsv_bits"] = _order(shape, 0, crossings * vector_bits, vec_bits, 0)

    counts = (update.counts.scaled(m ** 3) + cpe.counts.scaled(m ** 3 - m)
              + OpCounts(tsv_bits=tsv_bits))
    return SimResult(n=n, block_size=b, tiles_per_row=m, total_cycles=start,
                     total_time_ps=start * cfg.clock_period_ps,
                     bulk_load_cycles=cfg.pim.bulk_load_cycles, counts=counts,
                     energy=energy_of(counts, cfg.energy),
                     per_bank_group_busy=busy.tolist()), events


def simulate(n: int, b: int, cfg: HbmConfig, *,
             enforce_wavefront: bool = True) -> SimResult:
    """Simulate blocked FW on an n-vertex graph with b x b tiles.

    Purely analytic: runtime scales with the number of tiles, not n^3.
    Deterministic: identical inputs produce identical results.
    """
    return _run(n, b, cfg, enforce_wavefront, False)[0]


def timeline(n: int, b: int, cfg: HbmConfig, *,
             enforce_wavefront: bool = True) -> np.ndarray:
    """Every event of the run that simulate() totals, as one EVENT record
    array in emission order (see the module docstring)."""
    return _run(n, b, cfg, enforce_wavefront, True)[1]


def check_functional_size(n: int, b: int) -> None:
    """Refuse functional execution of an n-vertex matrix whose padding to
    whole b x b tiles, the size the kernels work on, passes the guard."""
    padded = tiles_per_row(n, b) * b
    if padded > FUNCTIONAL_GUARD:
        raise GuardError(f"functional execution is guarded at n <= {FUNCTIONAL_GUARD} padded "
                         f"(n={n} pads to {padded} at b={b}); use the timing-only simulate()")


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
    check_functional_size(n, b)
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
