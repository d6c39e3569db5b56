"""Bit-exact Floyd-Warshall: the in-place min-plus kernel that every path
runs on, the O(N^3) reference and the blocked variant.

All arithmetic is on uint32 distances with saturating addition: INF + x = INF,
and any finite sum that would overflow 32 bits saturates to INF. The kernel
never clamps: it works from cast-in to cast-out below a cap, so no sum of two
wraps, and capped (min, +) returns min(distance, cap). The cap is 2^31 - 1 in
uint32, INF mapped to it, when max(n - 1, 1) times the largest finite entry is
below it, so no finite distance can reach it; otherwise INF in uint64.
Both kernels relax their row-major working copy through one row sweep,
_relax, in bands of whole rows. A row whose pivot-column entries all sit at
the cap cannot change: its sums are >= the cap >= its entries. At every step
or round _relax finds the live rows and gathers them while they are few, as
in a sparse graph's early steps; otherwise it sweeps contiguous bands.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF, TiledMatrix

# Elements per band of rows relaxed at once by _relax, a view or a gathered
# copy (a band is at least one row of the matrix): band plus kernel scratch
# take 1 MiB in uint64 (512 KiB in uint32), one core's L2 on the AMD EPYC it
# was sized on.
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
    _minplus(d, d, d) Floyd-Warshall (fw_blocked's pivot closure). All three
    must share one dtype, uint32 holding values <= 2^31 - 1 or uint64 holding
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


def _relax(d: np.ndarray, lo: int, hi: int, right: np.ndarray) -> None:
    """d[i] = min(d[i], d[i, lo:hi] (x) right) for each row i outside lo:hi,
    in bands of _CHUNK_ELEMS // n rows (at least one). Only live rows can
    change: those with a pivot entry d[i, lo:hi] below the working cap. While
    gathering them takes fewer passes than contiguous bands,
    live * (h + 1) < h * (n - h) with h = hi - lo, the live rows are
    gathered; otherwise contiguous bands sweep every row, the pivot row too
    at h = 1. The pivot rows are a fixed point of their own step, so either
    is exact."""
    n, h = d.shape[0], hi - lo
    band = max(1, _CHUNK_ELEMS // n)
    mask = (d[:, lo:hi] < (_NARROW_CAP if d.dtype == np.uint32 else INF)).any(axis=1)
    mask[lo:hi] = False
    if np.count_nonzero(mask) * (h + 1) < h * (n - h):
        live = np.flatnonzero(mask)
        for r in range(0, len(live), band):
            rows = live[r:r + band]
            block = d[rows]
            _minplus(block, block[:, lo:hi].copy(), right)
            d[rows] = block
        return
    for start, stop in ((0, n),) if h == 1 else ((0, lo), (hi, n)):
        for r in range(start, stop, band):
            block = d[r:min(r + band, stop)]
            _minplus(block, block[:, lo:hi].copy(), right)


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic k-outermost triple loop
    (inner two loops vectorized; identical results for unsigned weights),
    one _relax per step k.

    Holds a working copy of d, 4 * n^2 bytes in uint32 and 8 * n^2 in uint64
    (64 or 128 MiB at the functional guard, n = 4096); a band and its scratch
    take at most _CHUNK_ELEMS elements each.
    """
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    out = _cast_in(d, n)
    for k in range(n):
        _relax(out, k, k + 1, out[k:k + 1])
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
    C (x) Q are then >= the cap too, so _relax may skip it. The four-phase
    tile order lives in the scheduler and the tests' naive_blocked. Returns
    tiles that view the row-major result, equal to fw_reference's.
    """
    n, b, m = t.n, t.b, t.m
    d = _cast_in(t.tiles.swapaxes(1, 2), n).reshape(n, n)
    for lo in range(0, n, b):
        hi = lo + b
        pivot = d[lo:hi, lo:hi]
        _minplus(pivot, pivot, pivot)
        if m == 1:
            continue
        row = d[lo:hi]
        _minplus(row, pivot.copy(), row.copy())
        _relax(d, lo, hi, row)
    return TiledMatrix(n, b, m, _cast_out(d).reshape(m, b, m, b).swapaxes(1, 2))
