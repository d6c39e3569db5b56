"""Bit-exact Floyd-Warshall: the in-place min-plus tile kernel that every
path runs on, the O(N^3) reference and the blocked variant.

All arithmetic is on uint32 distances with saturating addition: INF + x = INF,
and any finite sum that would overflow 32 bits saturates to INF. The kernel
never clamps: it works from cast-in to cast-out below a cap, so no sum of two
wraps, and capped (min, +) returns min(distance, cap). The cap is 2^31 - 1 in
uint32, INF mapped to it, when max(n - 1, 1) times the largest finite entry is
below it, so no finite distance can reach it; otherwise INF in uint64.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF, TiledMatrix

# Elements per chunk of the batched wavefront update (a chunk is at least one
# row of tiles): block plus kernel scratch take 1 MiB in uint64 (512 KiB in
# uint32), one core's L2 on the AMD EPYC it was sized on.
_CHUNK_ELEMS = 65_536
_NARROW_CAP = 2**31 - 1


def _cast_in(d: np.ndarray, n: int) -> np.ndarray:
    """Working copy of d for an n x n run: uint32 with INF mapped to
    _NARROW_CAP when no finite distance can reach the cap, else uint64."""
    w = int(np.max(d, where=d != INF, initial=0))
    if max(n - 1, 1) * w < _NARROW_CAP:
        return np.minimum(d, _NARROW_CAP, dtype=np.uint32, casting="unsafe")
    return d.astype(np.uint64)


def _cast_out(work: np.ndarray) -> np.ndarray:
    """The uint32 distances held by a working copy from _cast_in."""
    if work.dtype == np.uint32:
        work[work >= _NARROW_CAP] = INF
    return work.astype(np.uint32, copy=False)


def _minplus(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """out = min(out, left (x) right) in place, over a stack of b x b tiles.

    One inner index t at a time, ascending: out[..., r, c] is relaxed with
    left[..., r, t] + right[..., t, c]. The sum for step t is formed in full
    before out is written, so left and right may alias out. All three must
    share one dtype, uint32 holding values <= 2^31 - 1 or uint64 holding
    values <= INF, so that no sum wraps.
    """
    if not (out.dtype == left.dtype == right.dtype
            and out.dtype in (np.uint32, np.uint64)):
        raise TypeError("_minplus needs uint32 or uint64 operands of one "
                        f"dtype, got {out.dtype}, {left.dtype}, {right.dtype}")
    tmp = np.empty(out.shape, dtype=out.dtype)
    for t in range(left.shape[-1]):
        np.add(left[..., :, t, None], right[..., t, None, :], out=tmp)
        np.minimum(out, tmp, out=out)


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic k-outermost triple loop
    (inner two loops vectorized; identical results for unsigned weights).

    Holds a working copy of d and an equal scratch: 8 * n^2 bytes in uint32,
    16 * n^2 in uint64 (128 or 256 MiB at the functional guard, n = 4096).
    """
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    out = _cast_in(d, n)
    _minplus(out, out, out)
    return _cast_out(out)


def fw_blocked(t: TiledMatrix) -> TiledMatrix:
    """Blocked Floyd-Warshall over a tiled matrix.

    Per pivot round k: the pivot tile gets an in-tile FW pass, then the pivot
    row and column are updated against the fresh pivot, then every remaining
    tile is relaxed against its row/column tiles. Returns the updated matrix,
    which equals fw_reference on the flattened matrix, element-exact.
    """
    tiles = _cast_in(t.tiles, t.n)
    for k in range(t.m):
        pivot = tiles[k, k]
        _minplus(pivot, pivot, pivot)
        others = [i for i in range(t.m) if i != k]
        if not others:
            continue
        # Row and column stacks are fancy-indexed copies, relaxed against a
        # snapshot of themselves and written back.
        row = tiles[k, others]
        _minplus(row, pivot[None], row.copy())
        tiles[k, others] = row
        col = tiles[others, k]
        _minplus(col, col.copy(), pivot[None])
        tiles[others, k] = col
        # The wavefront, chunked along i to bound temporary memory.
        step = max(1, _CHUNK_ELEMS // (len(others) * t.b * t.b))
        for lo in range(0, len(others), step):
            chunk = np.ix_(others[lo:lo + step], others)
            block = tiles[chunk]
            _minplus(block, col[lo:lo + step, None], row[None])
            tiles[chunk] = block
    return TiledMatrix(n=t.n, b=t.b, m=t.m, tiles=_cast_out(tiles))
