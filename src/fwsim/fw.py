"""Bit-exact Floyd-Warshall: scalar min-plus kernel, the O(N^3) reference,
the blocked variant, and the per-round tile operations that the timing
scheduler schedules.

All arithmetic is on uint32 distances with saturating addition: INF + x = INF,
and any finite sum that would overflow 32 bits saturates to INF.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import INF, TiledMatrix

# Upper bound on uint64 scratch elements per chunk in the batched wavefront
# update (keeps peak temporary memory around 32 MB).
_CHUNK_ELEMS = 4_000_000


class TilePhase(Enum):
    PIVOT_FW = "pivot_fw"
    PIVOT_ROW = "pivot_row"
    PIVOT_COL = "pivot_col"
    REMAINING = "remaining"


@dataclass(frozen=True)
class TileOpRecord:
    """One blocked-FW tile operation: which tile is written, from which tiles.

    round_records lists them per pivot round; the scheduler derives each
    round's events from that list.
    """

    phase: TilePhase
    k: int
    target: tuple[int, int]
    sources: tuple[tuple[int, int], ...]


def min_plus(d_ij: int, d_ik: int, d_kj: int) -> int:
    """Scalar relaxation: min(d_ij, d_ik + d_kj) with saturating addition."""
    return min(d_ij, min(d_ik + d_kj, INF))


def saturating_add(a, b) -> np.ndarray:
    """Elementwise uint32 addition that saturates at INF instead of wrapping."""
    s = np.add(a, b, dtype=np.uint64)
    return np.minimum(s, INF).astype(np.uint32)


def _relax(target: np.ndarray, left, right) -> None:
    # target = min(target, left + right), saturating, in place
    s = np.add(left, right, dtype=np.uint64)
    np.minimum(target, np.minimum(s, INF).astype(np.uint32), out=target)


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic k-outermost triple loop
    (inner two loops vectorized; identical results for unsigned weights)."""
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    out = d.astype(np.uint32, copy=True)
    for k in range(n):
        _relax(out, out[:, k, None], out[k, None, :])
    return out


def tile_fw(a_kk: np.ndarray) -> np.ndarray:
    """In-tile Floyd-Warshall over all local pivots of one square tile."""
    b = a_kk.shape[0]
    out = a_kk.astype(np.uint32, copy=True)
    for t in range(b):
        _relax(out, out[:, t, None], out[t, None, :])
    return out


def tile_minplus_update(a_ij: np.ndarray, a_ik: np.ndarray, a_kj: np.ndarray) -> np.ndarray:
    """Min-plus matrix product accumulated into a_ij:
    result[r][c] = min(a_ij[r][c], min over t of a_ik[r][t] + a_kj[t][c]).

    The inner reduction runs t-ascending; the accumulator is a fresh copy, so
    the inputs are read as snapshots even when a_kj aliases a_ij.
    """
    out = a_ij.astype(np.uint32, copy=True)
    b = out.shape[0]
    for t in range(b):
        _relax(out, a_ik[:, t, None], a_kj[t, None, :])
    return out


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


def full_trace(m: int) -> list[TileOpRecord]:
    trace: list[TileOpRecord] = []
    for k in range(m):
        trace.extend(round_records(k, m))
    return trace


def trace_length(m: int) -> int:
    """Number of tile operations for m tiles per row: m*(1 + 2(m-1) + (m-1)^2)."""
    return m * (1 + 2 * (m - 1) + (m - 1) ** 2)


def _update_pivot_rows(tiles: np.ndarray, k: int, others: list[int]) -> None:
    # A[k][j] = min(A[k][j], A[k][k] (+) A[k][j]) for all j != k, batched.
    pivot = tiles[k, k]
    stack = tiles[k, others]              # (p, b, b) copy via fancy indexing
    snap = stack.copy()
    b = pivot.shape[0]
    for t in range(b):
        _relax(stack, pivot[None, :, t, None], snap[:, t, None, :])
    tiles[k, others] = stack


def _update_pivot_cols(tiles: np.ndarray, k: int, others: list[int]) -> None:
    # A[i][k] = min(A[i][k], A[i][k] (+) A[k][k]) for all i != k, batched.
    pivot = tiles[k, k]
    stack = tiles[others, k]
    snap = stack.copy()
    b = pivot.shape[0]
    for t in range(b):
        _relax(stack, snap[:, :, t, None], pivot[None, t, None, :])
    tiles[others, k] = stack


def _update_remaining(tiles: np.ndarray, k: int, others: list[int]) -> None:
    # A[i][j] = min(A[i][j], A[i][k] (+) A[k][j]), batched over the wavefront,
    # chunked along i to bound temporary memory.
    b = tiles.shape[-1]
    col = tiles[others, k]                # (p, b, b), already updated
    row = tiles[k, others]                # (p, b, b), already updated
    p = len(others)
    rows_per_chunk = max(1, _CHUNK_ELEMS // max(1, p * b * b))
    for lo in range(0, p, rows_per_chunk):
        hi = min(p, lo + rows_per_chunk)
        block = tiles[np.ix_(others[lo:hi], others)]   # (q, p, b, b) copy
        for t in range(b):
            _relax(
                block,
                col[lo:hi, None, :, t, None],
                row[None, :, t, None, :],
            )
        tiles[np.ix_(others[lo:hi], others)] = block


def fw_blocked(t: TiledMatrix) -> TiledMatrix:
    """Blocked Floyd-Warshall over a tiled matrix.

    Per pivot round k: the pivot tile gets an in-tile FW pass, then the pivot
    row and column are updated against the fresh pivot, then every remaining
    tile is relaxed against its row/column tiles. Returns the updated matrix,
    which equals fw_reference on the flattened matrix, element-exact.
    """
    tiles = t.tiles.copy()
    for k in range(t.m):
        tiles[k, k] = tile_fw(tiles[k, k])
        others = [i for i in range(t.m) if i != k]
        if others:
            _update_pivot_rows(tiles, k, others)
            _update_pivot_cols(tiles, k, others)
            _update_remaining(tiles, k, others)
    return TiledMatrix(n=t.n, b=t.b, m=t.m, tiles=tiles)
