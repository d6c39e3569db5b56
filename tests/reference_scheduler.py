"""Reference scheduler: the blocked-FW round structure as one record per tile
operation, and a scalar scheduler that walks those records one tile at a time,
pricing every broadcast with broadcast_cost and placing every tile with
map_tile_to_bank_group.

fwsim.scheduler computes each pivot round with array closed forms; this module
states the same serialization rules directly (a FIFO per bank-group, a chain
per channel-PE, one TSV bus) and is the oracle those closed forms are checked
against, the way fw_reference guards fw_blocked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from fwsim.hbm import HbmConfig
from fwsim.perf import (
    CostQuote,
    OpCounts,
    cpe_reduction_cost,
    energy_of,
    tile_row_pass_cost,
    tile_update_cost,
)
from fwsim.scheduler import EVENT, EventKind, SimResult, tiles_per_row


def map_tile_to_bank_group(i: int, j: int, m: int, c: int, g: int) -> int:
    """Interleaved mapping of logical tile (i, j) to a physical bank-group:
    (i * m + j) mod (c * g)."""
    if not (0 <= i < m and 0 <= j < m):
        raise IndexError(f"tile ({i}, {j}) out of range for m={m}")
    return (i * m + j) % (c * g)


def broadcast_cost(src_bg: int, dst_bgs, b: int, cfg: HbmConfig) -> CostQuote:
    """Broadcast one b-element 32-bit vector from a bank-group to a set of
    bank-groups.

    Hop structure: one step reaches all other channels in parallel; within a
    channel, each additional bank-group beyond the entry point costs one
    sequential step; delivery inside the source group alone is a single step.
    Every step moves the payload in ceil(b * 32 / dq_bits) bus beats.
    tsv_bits counts only bits that cross between channels.
    """
    dsts = sorted(set(dst_bgs))
    if not dsts:
        raise ValueError("broadcast needs at least one destination")
    g = cfg.bank_groups_per_channel
    for bg in dsts + [src_bg]:
        if not (0 <= bg < cfg.total_bank_groups):
            raise ValueError(f"bank-group {bg} out of range")
    src_ch, src_pos = src_bg // g, src_bg % g
    by_channel: dict[int, set[int]] = {}
    for bg in dsts:
        by_channel.setdefault(bg // g, set()).add(bg % g)
    cross = 1 if any(ch != src_ch for ch in by_channel) else 0
    # Entry group per channel: the source group in its own channel, the
    # like-positioned group elsewhere; each other group is one more hop.
    inter = max(len(pos - {src_pos}) for pos in by_channel.values())
    steps = max(1, cross + inter)
    beats = -(-b * cfg.pim.operand_bits // cfg.dq_bits)
    crossings = sum(1 for ch in by_channel if ch != src_ch)
    counts = OpCounts(tsv_bits=b * cfg.pim.operand_bits * crossings)
    return CostQuote(cycles=steps * beats, counts=counts)


class TilePhase(Enum):
    PIVOT_FW = "pivot_fw"
    PIVOT_ROW = "pivot_row"
    PIVOT_COL = "pivot_col"
    REMAINING = "remaining"


@dataclass(frozen=True)
class TileOpRecord:
    """One blocked-FW tile operation: which tile is written, from which tiles."""

    phase: TilePhase
    k: int
    target: tuple[int, int]
    sources: tuple[tuple[int, int], ...]


def round_records(k: int, m: int) -> list[TileOpRecord]:
    """Tile operations of pivot round k, in execution order: the pivot tile,
    pivot-row updates (j ascending), pivot-column updates (i ascending), then
    the remaining tiles row-major."""
    records = [TileOpRecord(TilePhase.PIVOT_FW, k, (k, k), ((k, k),))]
    others = [j for j in range(m) if j != k]
    for j in others:
        records.append(TileOpRecord(TilePhase.PIVOT_ROW, k, (k, j), ((k, k), (k, j))))
    for i in others:
        records.append(TileOpRecord(TilePhase.PIVOT_COL, k, (i, k), ((k, k), (i, k))))
    for i in others:
        for j in others:
            records.append(TileOpRecord(TilePhase.REMAINING, k, (i, j), ((i, k), (k, j))))
    return records


def kind_quotes(b: int, cfg: HbmConfig) -> dict[EventKind, OpCounts]:
    """Each event kind's op counts: an event counts its kind's plus its
    tsv_bits."""
    update = tile_update_cost(b, cfg).counts
    return {EventKind.PIVOT_FW: update, EventKind.BROADCAST: OpCounts(),
            EventKind.ROW_COL_UPDATE: update, EventKind.REMAINING_UPDATE: update,
            EventKind.CPE_REDUCE: cpe_reduction_cost(cfg.bank_groups_per_channel, cfg).counts}


def full_trace(m: int) -> list[TileOpRecord]:
    trace: list[TileOpRecord] = []
    for k in range(m):
        trace.extend(round_records(k, m))
    return trace


def run(n: int, b: int, cfg: HbmConfig, events: list[tuple] | None) -> SimResult:
    """Charge the bulk load, then chain the pivot rounds, each starting when
    the previous one's last event ends. Every event is appended to events, as
    a tuple in EVENT field order, when it is a list."""
    m = tiles_per_row(n, b)
    g = cfg.bank_groups_per_channel
    bank_group = {(i, j): map_tile_to_bank_group(i, j, m, cfg.channels, g)
                  for i in range(m) for j in range(m)}
    update = tile_update_cost(b, cfg)
    cpe = cpe_reduction_cost(g, cfg)
    step_cycles = b * tile_row_pass_cost(b, cfg).cycles
    overlap = cfg.pim.broadcast_overlap
    vector_quotes = {}
    busy = [0] * cfg.total_bank_groups
    tsv_bits = 0

    start = cfg.pim.bulk_load_cycles
    if start > 0:
        tsv_bits = (m * b) * (m * b) * cfg.pim.operand_bits
        if events is not None:
            events.append((EventKind.BROADCAST, -1, -1, -1, 0, 0, start, tsv_bits))
    for k in range(m):
        pivot, *updates = round_records(k, m)
        pivot_bg = bank_group[pivot.target]
        pivot_end = start + update.cycles
        busy[pivot_bg] += update.cycles
        if events is not None:
            events.append((EventKind.PIVOT_FW, k, *pivot.target, pivot_bg, start, pivot_end, 0))
        if not updates:
            start = pivot_end
            continue

        fill = broadcast_cost(pivot_bg, {bank_group[r.target] for r in updates
                                         if r.phase is not TilePhase.REMAINING}, b, cfg)
        fill_end = tsv_free = pivot_end + fill.cycles
        tsv_bits += fill.counts.tsv_bits
        if events is not None:
            events.append((EventKind.BROADCAST, k, *pivot.target, 0, pivot_end, fill_end,
                           fill.counts.tsv_bits))
        group_free: dict[int, int] = {}
        chan_free: dict[int, int] = {}
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
                events.append((kind, k, *r.target, bg, tile_start, end, vec_bits))
                events.append((EventKind.CPE_REDUCE, k, *r.target, ch, cpe_start,
                               chan_free[ch], 0))
            if wavefront:
                continue
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
                events.append((EventKind.BROADCAST, k, *r.target, 0, f_start, tsv_free,
                               f.counts.tsv_bits))
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


def simulate(n: int, b: int, cfg: HbmConfig) -> SimResult:
    return run(n, b, cfg, None)


def timeline(n: int, b: int, cfg: HbmConfig) -> np.ndarray:
    events: list[tuple] = []
    run(n, b, cfg, events)
    return np.array(events, dtype=EVENT)
