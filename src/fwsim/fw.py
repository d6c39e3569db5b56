"""Bit-exact Floyd-Warshall: the in-place min-plus tile kernel that every
path runs on, the O(N^3) reference and the blocked variant.

All arithmetic is on uint32 distances with saturating addition: INF + x = INF,
and any finite sum that would overflow 32 bits saturates to INF. The kernel
works in uint64 from cast-in to cast-out and never clamps: every distance it
relaxes is <= INF, so a sum of two fits in 64 bits, min(d, min(s, INF)) ==
min(d, s), and the final cast back to uint32 is exact.
"""

from __future__ import annotations

import numpy as np

from .graphs import TiledMatrix

# Elements per chunk of the batched wavefront update (a chunk is at least one
# row of tiles): the uint64 block plus the kernel's uint64 scratch of the same
# shape take 1 MiB, one core's L2 on the AMD EPYC it was sized on.
_CHUNK_ELEMS = 65_536


def _minplus(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """out = min(out, left (x) right) in place, over a stack of b x b tiles.

    One inner index t at a time, ascending: out[..., r, c] is relaxed with
    left[..., r, t] + right[..., t, c]. The sum for step t is formed in full
    before out is written, so left and right may alias out. All three must be
    uint64 holding values <= INF; a uint32 operand would wrap on the add.
    """
    if not out.dtype == left.dtype == right.dtype == np.uint64:
        raise TypeError("_minplus needs uint64 operands, got "
                        f"{out.dtype}, {left.dtype}, {right.dtype}")
    tmp = np.empty(out.shape, dtype=np.uint64)
    for t in range(left.shape[-1]):
        np.add(left[..., :, t, None], right[..., t, None, :], out=tmp)
        np.minimum(out, tmp, out=out)


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic k-outermost triple loop
    (inner two loops vectorized; identical results for unsigned weights).

    Holds a uint64 working copy of d and an equal scratch, 16 * n^2 bytes
    (256 MiB at the functional guard, n = 4096).
    """
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    out = d.astype(np.uint64)
    _minplus(out, out, out)
    return out.astype(np.uint32)


def fw_blocked(t: TiledMatrix) -> TiledMatrix:
    """Blocked Floyd-Warshall over a tiled matrix.

    Per pivot round k: the pivot tile gets an in-tile FW pass, then the pivot
    row and column are updated against the fresh pivot, then every remaining
    tile is relaxed against its row/column tiles. Returns the updated matrix,
    which equals fw_reference on the flattened matrix, element-exact.
    """
    tiles = t.tiles.astype(np.uint64)
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
    return TiledMatrix(n=t.n, b=t.b, m=t.m, tiles=tiles.astype(np.uint32))
