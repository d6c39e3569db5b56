"""Bit-exact Floyd-Warshall: the in-place min-plus tile kernel that every
path runs on, the O(N^3) reference and the blocked variant.

All arithmetic is on uint32 distances with saturating addition: INF + x = INF,
and any finite sum that would overflow 32 bits saturates to INF. The kernel
adds in uint64 and never clamps: every distance it relaxes is <= INF, so
min(d, min(s, INF)) == min(d, s), and the minimum always fits back in uint32.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF, TiledMatrix

# Upper bound on elements per chunk of the batched wavefront update: the
# uint32 block plus the kernel's uint64 scratch of the same shape keep peak
# temporary memory around 48 MB.
_CHUNK_ELEMS = 4_000_000


def _minplus(out: np.ndarray, left, right) -> None:
    """out = min(out, left (x) right) in place, over a stack of b x b tiles.

    One inner index t at a time, ascending: out[..., r, c] is relaxed with
    left[..., r, t] + right[..., t, c]. The sum for step t is formed in full
    before out is written, so left and right may alias out.
    """
    tmp = np.empty(out.shape, dtype=np.uint64)
    for t in range(left.shape[-1]):
        np.add(left[..., :, t, None], right[..., t, None, :], out=tmp, dtype=np.uint64)
        np.minimum(out, tmp, out=out, casting="unsafe")


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic k-outermost triple loop
    (inner two loops vectorized; identical results for unsigned weights)."""
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    out = d.astype(np.uint32, copy=True)
    _minplus(out, out, out)
    return out


def tile_minplus_update(a_ij: np.ndarray, a_ik: np.ndarray, a_kj: np.ndarray) -> np.ndarray:
    """Min-plus matrix product accumulated into a_ij:
    result[r][c] = min(a_ij[r][c], min over t of a_ik[r][t] + a_kj[t][c]).

    The inner reduction runs t-ascending; the accumulator is a fresh copy, so
    the inputs are read as snapshots even when a_kj aliases a_ij.
    """
    out = a_ij.astype(np.uint32, copy=True)
    _minplus(out, a_ik, a_kj)
    return out


def fw_blocked(t: TiledMatrix) -> TiledMatrix:
    """Blocked Floyd-Warshall over a tiled matrix.

    Per pivot round k: the pivot tile gets an in-tile FW pass, then the pivot
    row and column are updated against the fresh pivot, then every remaining
    tile is relaxed against its row/column tiles. Returns the updated matrix,
    which equals fw_reference on the flattened matrix, element-exact.
    """
    tiles = t.tiles.copy()
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
    return TiledMatrix(n=t.n, b=t.b, m=t.m, tiles=tiles)
