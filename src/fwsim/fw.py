"""Bit-exact Floyd-Warshall: the in-place min-plus kernel that every path
runs on, the O(N^3) reference and the blocked variant.

All arithmetic is on uint32 distances with saturating addition: INF + x = INF,
and any finite sum that would overflow 32 bits saturates to INF. The kernel
never clamps: it works from cast-in to cast-out below a cap, so no sum of two
wraps, and capped (min, +) returns min(distance, cap). The cap is 2^31 - 1 in
uint32, INF mapped to it, when max(n - 1, 1) times the largest finite entry is
below it, so no finite distance can reach it; otherwise INF in uint64.
fw_blocked relaxes its row-major working copy in bands of whole rows.
Both kernels skip a row whose pivot-column entries all sit at the cap: its
sums are >= the cap >= its entries. While few rows are live, as in a sparse
graph's early steps, _relax_live gathers those; from the first step or round
where dense bands take fewer passes, every later one runs dense, unchecked.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF, TiledMatrix

# Elements per band of rows relaxed at once, a view in fw_blocked's dense
# rounds or a gathered copy in _relax_live (a band is at least one row of the
# matrix): band plus kernel scratch take 1 MiB in uint64 (512 KiB in uint32),
# one core's L2 on the AMD EPYC it was sized on.
_CHUNK_ELEMS = 65_536
_NARROW_CAP = 2**31 - 1


def _cast_in(d: np.ndarray, n: int) -> np.ndarray:
    """C-ordered working copy of d for an n x n run: uint32 with INF mapped to
    _NARROW_CAP when no finite distance can reach the cap, else uint64."""
    w = int(np.max(d, where=d != INF, initial=0))
    if max(n - 1, 1) * w < _NARROW_CAP:
        return np.minimum(d, _NARROW_CAP, dtype=np.uint32, casting="unsafe", order="C")
    return d.astype(np.uint64, order="C")


def _cast_out(work: np.ndarray) -> np.ndarray:
    """The uint32 distances held by a working copy from _cast_in."""
    if work.dtype == np.uint32:
        work[work >= _NARROW_CAP] = INF
    return work.astype(np.uint32, copy=False)


def _minplus(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """out = min(out, left (x) right) in place, over matrices or stacks of
    them: out[..., r, c], left[..., r, t], right[..., t, c].

    One inner index t at a time, ascending. The sum for step t is formed in
    full before out is written, so left and right may alias out; an aliased
    operand then holds at step t what steps < t wrote, which makes
    _minplus(d, d, d) Floyd-Warshall (fw_reference). All three must share one
    dtype, uint32 holding values <= 2^31 - 1 or uint64 holding values <= INF,
    so that no sum wraps.
    """
    if not (out.dtype == left.dtype == right.dtype
            and out.dtype in (np.uint32, np.uint64)):
        raise TypeError("_minplus needs uint32 or uint64 operands of one "
                        f"dtype, got {out.dtype}, {left.dtype}, {right.dtype}")
    tmp = np.empty(out.shape, dtype=out.dtype)
    for t in range(left.shape[-1]):
        np.add(left[..., :, t, None], right[..., t, None, :], out=tmp)
        np.minimum(out, tmp, out=out)


def _relax_live(d: np.ndarray, lo: int, hi: int, right: np.ndarray) -> bool:
    """d[i] = min(d[i], d[i, lo:hi] (x) right) for each live row i: outside
    lo:hi, with a pivot entry d[i, lo:hi] below the working cap. Gathers them
    in bands and returns True, or relaxes nothing and returns False when dense
    bands take fewer passes: live * (h + 1) >= h * (n - h), h = hi - lo."""
    n, h = d.shape[0], hi - lo
    mask = (d[:, lo:hi] < (_NARROW_CAP if d.dtype == np.uint32 else INF)).any(axis=1)
    mask[lo:hi] = False
    live = np.flatnonzero(mask)
    if len(live) * (h + 1) >= h * (n - h):
        return False
    band = max(1, _CHUNK_ELEMS // n)
    for r in range(0, len(live), band):
        rows = live[r:r + band]
        block = d[rows]
        _minplus(block, block[:, lo:hi].copy(), right)
        d[rows] = block
    return True


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic k-outermost triple loop
    (inner two loops vectorized; identical results for unsigned weights):
    gathered steps while _relax_live takes them, then one dense _minplus.

    Holds a working copy of d and an equal scratch: 8 * n^2 bytes in uint32,
    16 * n^2 in uint64 (128 or 256 MiB at the functional guard, n = 4096); a
    gathered step's band and scratch take at most _CHUNK_ELEMS elements each.
    """
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    out = _cast_in(d, n)
    k = 0
    while k < n and _relax_live(out, k, k + 1, out[k:k + 1]):
        k += 1
    _minplus(out, out[:, k:], out[k:])
    return _cast_out(out)


def fw_blocked(t: TiledMatrix) -> TiledMatrix:
    """Blocked Floyd-Warshall over a tiled matrix, on one row-major copy d.

    Round k, K the rows and columns of pivot tile k: close P = d[K, K], relax
    the pivot row R = d[K] against P (its K columns stay: P (x) P >= P once P
    is closed), then relax every other row, in bands, against its pre-round
    pivot columns C and the new row Q (x) R, Q = I (+) P. As Q is idempotent,
    C (x) Q (x) R = (C (x) Q) (x) (Q (x) R), and the K columns get
    C (+) C (x) P = C (x) Q: the bands do the pivot-column update too. A row
    whose C entries all sit at the cap is unchanged, as C (x) Q (x) R and
    C (x) Q are then >= the cap too; while few rows are live, _relax_live
    relaxes only those. The four-phase tile order lives in the scheduler and
    the tests' naive_blocked. Returns tiles that view the row-major result,
    equal to fw_reference's.
    """
    n, b, m = t.n, t.b, t.m
    d = _cast_in(t.tiles.swapaxes(1, 2), n).reshape(n, n)
    band = max(1, _CHUNK_ELEMS // n)
    sparse = True
    for lo in range(0, n, b):
        hi = lo + b
        pivot = d[lo:hi, lo:hi]
        _minplus(pivot, pivot, pivot)
        if m == 1:
            continue
        row = d[lo:hi]
        _minplus(row, pivot.copy(), row.copy())
        if sparse and _relax_live(d, lo, hi, row):
            continue
        sparse = False
        for start, stop in ((0, lo), (hi, n)):
            for r in range(start, stop, band):
                block = d[r:min(r + band, stop)]
                _minplus(block, block[:, lo:hi].copy(), row)
    return TiledMatrix(n, b, m, _cast_out(d).reshape(m, b, m, b).swapaxes(1, 2))
