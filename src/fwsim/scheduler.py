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
before it, so every time in a round is an offset from its start, and rounds
are built in groups of consecutive pivots. Tile t = i * m + j lives on
bank-group t mod G, so the row-major grid cut into laps of `width` tiles has
one bank-group per column and one channel per run of g columns, and every
scan runs along an axis in emission order, with no sort:

  row/column ends      the fill's end + a cumsum over each line's tiles a
                       bank-group period apart, column tiles after row tiles
  result broadcasts    the TSV chain x_i = max(x_{i-1}, e_i) + f_i from the
                       pivot's end is S_i + max_{q<=i}(e_q - S_q + f_q), S =
                       cumsum(f); its end T frees the wavefront
  wavefront ends       T + a cumsum down the laps
  channel-PE chain     a channel's p-th reduction, C cycles each, ends at
                       (p + 1) C + max_{q<=p}(e_q - q C): on a one-hot of
                       channels for row and column tiles, then on the runs
  vector streams       one step, two if both channel and position differ
  fan-out              a step to cross channels, one per bank-group past the
                       entry point: per line of tiles, and the fill per round
  round starts         the bulk load + an exclusive cumsum of round lengths

tests/reference_scheduler.py schedules tile by tile; it is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, GuardError
from .fw import fw_blocked
from .graphs import from_tile_major, to_tile_major
from .hbm import HbmConfig
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
# as m^3, 44 ms at m = 128 and 0.28 s at m = 256 for simulate on a 2-core Xeon.
TIMING_GUARD = 1024

# Pivot rounds are built in groups of at most this many grid tiles (at least one
# round): numpy's per-call cost amortized, a group's temporaries kept small.
_GROUP_UPDATES = 32768


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


def _order(live, wave, pivot, fill, rc, grid) -> np.ndarray:
    """One EVENT field of a group of rounds in emission order: per round the
    pivot's and fill's values, then rc = (update, reduction, result broadcast)
    per live slot of its (rounds, 2m) row and column tiles, then grid =
    (update, reduction) per live tile of its (rounds, m^2) grid."""
    parts = [np.broadcast_to(pivot, (len(live), 1)),
             np.broadcast_to(fill, (len(live), int(live.shape[1] > 2)))]  # m = 1: no fill
    for mask, values in ((live, rc), (wave, grid)):
        values = np.stack([np.broadcast_to(v, mask.shape) for v in values], axis=2)
        parts.append(values[mask].reshape(len(live), -1))
    return np.concatenate(parts, axis=1).ravel()


def _fold(values: np.ndarray, period: int) -> np.ndarray:
    """Per round of values, (rounds, laps, period) cumsums down laps of period."""
    padded = np.zeros((len(values), -(-values.shape[1] // period) * period), dtype=values.dtype)
    padded[:, :values.shape[1]] = values
    return np.cumsum(padded.reshape(len(values), -1, period), axis=1)


def _run(n: int, b: int, cfg: HbmConfig, keep_events: bool) -> tuple[SimResult, np.ndarray | None]:
    """Check the size guards, charge the bulk load, then chain the pivot rounds,
    each starting when the previous one's last event ends. With keep_events, each
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
    total = cfg.total_bank_groups
    busy = np.zeros(total, dtype=np.int64)
    per = min(g, m * m)  # below g only when one channel holds every tile
    width = min(total, -(-m * m // per) * per)
    held, laps = width // per, -(-m * m // width)
    cell = np.arange(m * m).reshape(m, m)
    bank_group = cell % total
    channel, position = (a.astype(np.min_scalar_type(width)) for a in np.divmod(bank_group, per))
    # Slot s < m of a round is row tile (k, s), which publishes to column s,
    # slot m + i column tile (i, k), to row i. Per line and source position:
    # the entry point in each channel is the like-positioned bank-group.
    slot = np.arange(2 * m)
    line = np.bincount((slot[:, None] * width + np.concatenate([bank_group.T, bank_group])).ravel(),
                       minlength=2 * m * width).reshape(2 * m, held, per)  # tiles per bank-group
    counts = (line > 0).sum(axis=2)
    line_crossings = (counts > 0).sum(axis=1) - 1
    to_line = beats * np.maximum(1, (line_crossings > 0)[:, None]
                                 + (counts[:, :, None] - (line > 0)).max(axis=1))
    # An update's cycles by grid index: a wavefront tile's count of two streams
    # crossing channel and position, 3 + that of one for a row or column tile,
    # 6 the pivot, 7 padding; int32 where that holds a round. With overlap,
    # step t+1's vectors ride under step t's compute.
    vec = np.array([2, 3, 4, 1, 2]) * beats
    cost = np.append(b * (np.maximum(step_cycles, vec) if cfg.pim.broadcast_overlap else
                          step_cycles + vec), [0, update.cycles, 0]).astype(
        np.int32 if round_bound < 1 << 31 else np.int64)

    start = cfg.pim.bulk_load_cycles
    # A round's events: pivot, fill if m > 1, 3 per row/column tile, 2 per wavefront tile.
    per_round = 1 + (m > 1) + 6 * (m - 1) + 2 * (m - 1) ** 2
    events = np.empty((start > 0) + m * per_round, dtype=EVENT) if keep_events else None
    at = int(start > 0)  # the events written
    tsv_bits = (m * b) * (m * b) * cfg.pim.operand_bits if start > 0 else 0
    if start > 0 and events is not None:
        events[0] = (EventKind.BROADCAST, -1, -1, -1, 0, 0, start, tsv_bits)
    group = max(1, _GROUP_UPDATES // max(m * m, width))
    for k0 in range(0, m, group):
        ks = np.arange(k0, min(k0 + group, m))
        rounds, r = len(ks), np.arange(len(ks))
        tiles = np.concatenate([cell[ks], cell[:, ks].T], axis=1)
        live = tiles != ks[:, None] * (m + 1)  # the pivot's two slots are masked
        rc_ch, rc_pos = np.divmod(tiles % total, per)

        # Tile (i, j) streams b vectors from (i, k) and from (k, j), a row or
        # column tile from the pivot alone.
        cross_a = channel != channel[:, ks].T[:, :, None]
        cross_b = channel != channel[ks][:, None, :]
        index = np.full((rounds, laps * width), 7, dtype=cost.dtype)
        grid = index[:, :m * m].reshape(rounds, m, m)
        np.add((cross_a & (position != position[:, ks].T[:, :, None])).view(np.int8),
               (cross_b & (position != position[ks][:, None, :])).view(np.int8), out=grid)
        grid[r, ks] += 3
        grid[r, :, ks] += 3
        cycles = np.take(cost, index, out=index)
        busy[:width] += cycles.reshape(-1, width).sum(axis=0, dtype=np.int64)
        tsv_bits += int(np.count_nonzero(cross_a) + np.count_nonzero(cross_b)) * b * vector_bits
        rc = cycles[r[:, None], tiles] * live
        cycles[r[:, None], tiles] = 0  # the wavefront's alone

        # The fill reaches column k's and row k's tiles (both hold the pivot;
        # there are none when m = 1).
        dst = line[ks] + line[m + ks]
        dst[r, rc_ch[r, ks], rc_pos[r, ks]] -= 2
        filled = (dst > 0).sum(axis=2)
        crossings = (filled > 0).sum(axis=1) - (filled[r, rc_ch[r, ks]] > 0)
        hops = (filled - (dst[r, :, rc_pos[r, ks]] > 0)).max(axis=1)
        sends = np.concatenate([beats * np.maximum(m > 1, (crossings > 0) + hops)[:, None],
                                to_line[slot, rc_pos] * live], axis=1)
        tsv_bits += (int(crossings.sum()) + int((line_crossings * live).sum())) * vector_bits

        # A row tile's bank-group recurs every `total` tiles, a column tile's
        # every total / gcd(m, total); column tiles queue after row tiles.
        rows = _fold(rc[:, :m], min(m, total))
        cols = _fold(rc[:, m:], min(m, total // np.gcd(m, total)))
        lane = (np.arange(cols.shape[2]) * m + ks[:, None] * (1 - m)) % total
        cols += np.where(lane < rows.shape[2], rows[r[:, None], -1, np.minimum(
            lane, rows.shape[2] - 1)], 0)[:, None]
        ends = (update.cycles + sends[:, :1] + np.concatenate(
            [rows.reshape(rounds, -1)[:, :m], cols.reshape(rounds, -1)[:, :m]], axis=1)) * live
        sent = np.cumsum(sends, axis=1)
        bcast_ends = sent + np.maximum.accumulate(np.concatenate(
            [np.full((rounds, 1), update.cycles), ends], axis=1) - sent + sends, axis=1)
        released = bcast_ends[:, -1:]

        # The row and column tiles' channel-PE chains, on a one-hot of channels.
        hot = np.where(live, rc_ch, held)[:, None, :] == np.arange(held)[:, None]
        counted = np.cumsum(hot, axis=2, dtype=np.int32)
        rank = counted[r[:, None], rc_ch, slot].astype(np.int64) - 1
        rc_terms = np.where(hot, (ends - rank * cpe.cycles)[:, None, :], np.iinfo(np.int64).min)
        carried = counted[:, :, -1].astype(np.int64) * cpe.cycles
        # The wavefront's chains continue along each channel's runs. A masked
        # tile counts the live ones before it, so its term is no more than the
        # last tile's on its bank-group or the next live tile's, or else puts
        # its chain's end at T, which the round already waits for.
        queue = cycles.reshape(rounds, laps, held, per).transpose(0, 2, 1, 3).copy()
        waves = (queue > 0).reshape(rounds, held, -1)
        np.cumsum(queue, axis=2, out=queue)
        terms = cycles.reshape(rounds, held, -1)  # row-major cycles are done with
        np.multiply(waves, cpe.cycles, out=terms)
        np.cumsum(terms, axis=2, out=terms)
        done = carried + terms[:, :, -1]
        np.subtract(queue.reshape(rounds, held, -1), terms, out=terms)
        np.add(terms, cpe.cycles, out=terms, where=waves)
        # The round ends with its last broadcast or channel-PE reduction; no
        # resource is busy when the next one starts.
        lengths = np.maximum(released[:, 0], (done + np.maximum(
            rc_terms.max(axis=2), released + terms.max(axis=2) - carried)).max(axis=1))
        s = (start + np.cumsum(lengths) - lengths)[:, None]  # the round starts
        start += int(lengths.sum())
        if events is not None:
            chain = np.maximum.accumulate(rc_terms, axis=2)
            rc_cpe = s + (rank + 1) * cpe.cycles + chain[r[:, None], rc_ch, slot]
            wave_cpe = queue.reshape(rounds, held, -1) - terms + cpe.cycles + np.maximum(
                chain[:, :, -1:] + carried[:, :, None],
                released[:, :, None] + np.maximum.accumulate(terms, axis=2))
            cycles, wave_ends, wave_cpe = (
                a.reshape(rounds, held, laps, per).transpose(0, 2, 1, 3).reshape(rounds, -1)[
                    :, :m * m] for a in (np.diff(queue, axis=2, prepend=0), queue, wave_cpe))
            k, pivot, wave = ks[:, None], ks[:, None] * (m + 1), cycles > 0
            streams = (cross_a.astype(np.int64) + cross_b).reshape(rounds, -1) * (b * vector_bits)
            rec, at = events[at:at + rounds * per_round], at + rounds * per_round
            for name, *values in (
                    ("kind", EventKind.PIVOT_FW, EventKind.BROADCAST,
                     (EventKind.ROW_COL_UPDATE, EventKind.CPE_REDUCE, EventKind.BROADCAST),
                     (EventKind.REMAINING_UPDATE, EventKind.CPE_REDUCE)),
                    ("k", k, k, (k,) * 3, (k,) * 2),
                    ("unit", pivot % total, 0, (tiles % total, rc_ch, 0),
                     (bank_group.ravel(), channel.ravel())),
                    ("end", s + update.cycles, s + bcast_ends[:, :1], (s + ends, rc_cpe,
                     s + bcast_ends[:, 1:]), (s + released + wave_ends, s + wave_cpe)),
                    ("tsv_bits", 0, crossings[:, None] * vector_bits,
                     (streams[r[:, None], tiles], 0, line_crossings * vector_bits), (streams, 0))):
                rec[name] = _order(live, wave, *values)
            rec["start"] = rec["end"] - _order(live, wave, update.cycles, sends[:, :1], (
                rc, cpe.cycles, sends[:, 1:]), (cycles, cpe.cycles))
            rec["i"], rec["j"] = np.divmod(_order(live, wave, pivot, pivot, (tiles,) * 3,
                                                  (cell.ravel(),) * 2), m)

    counts = (update.counts.scaled(m ** 3) + cpe.counts.scaled(m ** 3 - m)
              + OpCounts(tsv_bits=tsv_bits))
    return SimResult(n=n, block_size=b, tiles_per_row=m, total_cycles=start,
                     total_time_ps=start * cfg.clock_period_ps,
                     bulk_load_cycles=cfg.pim.bulk_load_cycles, counts=counts,
                     energy=energy_of(counts, cfg.energy),
                     per_bank_group_busy=busy.tolist()), events


def simulate(n: int, b: int, cfg: HbmConfig) -> SimResult:
    """Simulate blocked FW on an n-vertex graph with b x b tiles.

    Purely analytic: runtime scales with the number of tiles, not n^3.
    Deterministic: identical inputs produce identical results.
    """
    return _run(n, b, cfg, False)[0]


def timeline(n: int, b: int, cfg: HbmConfig) -> np.ndarray:
    """Every event of the run that simulate() totals, as one EVENT record
    array in emission order (see the module docstring)."""
    return _run(n, b, cfg, True)[1]


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
) -> tuple[np.ndarray, SimResult]:
    """Run the blocked algorithm for values and the scheduler for timing on
    the same workload. Returns (distance matrix, SimResult)."""
    n = d.shape[0]
    check_functional_size(n, b)
    tiled = to_tile_major(d, b)
    result = simulate(n, b, cfg)
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
