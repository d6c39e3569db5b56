"""Bit-exact Floyd-Warshall: the in-place min-plus kernel that every path
runs on, the O(N^3) reference and the blocked variant.

Distances are uint32, and addition saturates at INF. The kernels never clamp:
they work below a cap, INF mapped to it, so no sum of two wraps and capped
(min, +) gives min(distance, cap). _closure runs them at the narrowest width
of _CAPS whose cap exceeds w * n.bit_length(), w the largest finite entry,
and keeps the result if the largest entry below the cap, plus w, is below it
too; else it reruns one width up. uint64, capped at INF, is always kept. A
finite distance or cycle at the cap fails the check: a prefix of its shortest
path or cycle is a shortest distance, exact in [cap - w, cap). Both kernels
relax their row-major working copy through one row sweep, _relax.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF, TiledMatrix

# Bytes per band of rows relaxed at once by _relax (at least one row): band
# plus kernel scratch take 512 KiB, one core's L2 on the AMD EPYC.
_CHUNK_BYTES = 262_144
# Working widths, narrowest first, with their caps: a sum of two fits.
_CAPS = {np.uint16: 2**15 - 1, np.uint32: 2**31 - 1, np.uint64: INF}


def _closure(d: np.ndarray, n: int, loop) -> np.ndarray:
    """uint32 n x n result of loop(work), which closes a C-ordered n x n
    working copy of d (n^2 entries) in place, at the narrowest exact width."""
    w = int(np.max(d, where=d != INF, initial=0))
    for dtype, cap in _CAPS.items():
        if w * n.bit_length() < cap or cap == INF:
            # A uint16 working copy is the back half of the uint32 result's
            # memory. Clamped in d's width, entries narrow on the write.
            out = np.empty(n * n, np.promote_types(dtype, np.uint32))
            work = out.view(dtype)[-n * n:].reshape(n, n)
            np.minimum(d, cap, out=work.reshape(d.shape), casting="unsafe")
            loop(work)
            if cap == INF or int(np.max(work, where=work < cap, initial=0)) + w < cap:
                break
            del out, work  # before the next width's buffer
    # An ascending copy never overtakes its source: entry j goes to bytes
    # [4j, 4j + 4), short of unread entry j + 1 at 2 * n^2 + 2j + 2, so numpy
    # widens the uint16 copy in place, without a temporary.
    if dtype is np.uint16:
        out[:] = work.reshape(-1)
    out = out.astype(np.uint32, copy=False).reshape(n, n)
    out[out == cap] = INF
    return out


def _minplus(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """out = min(out, left (x) right) in place, over matrices or stacks of
    them: out[..., r, c], left[..., r, t], right[..., t, c].

    One inner index t at a time, ascending. The sum for step t is formed in
    full before out is written, so left and right may alias out; an aliased
    operand then holds at step t what steps < t wrote, which makes
    _minplus(d, d, d) Floyd-Warshall (fw_blocked's pivot closure). All three
    must share one dtype of _CAPS, holding values <= its cap, so that no
    sum wraps.
    """
    if not (out.dtype == left.dtype == right.dtype and out.dtype.type in _CAPS):
        raise TypeError("_minplus needs uint16, uint32 or uint64 operands of one "
                        f"dtype, got {out.dtype}, {left.dtype}, {right.dtype}")
    tmp = np.empty(out.shape, dtype=out.dtype)
    for t in range(left.shape[-1]):
        np.add(left[..., :, t, None], right[..., t, None, :], out=tmp)
        np.minimum(out, tmp, out=out)


def _relax(d: np.ndarray, lo: int, hi: int, right: np.ndarray) -> None:
    """d[i] = min(d[i], d[i, lo:hi] (x) right) for each row i outside lo:hi,
    in bands of _CHUNK_BYTES (at least a row). A dead row, its pivot entries
    d[i, lo:hi] all at the cap, cannot change: its sums are >= the cap >= its
    entries. While gathering the live rows takes fewer passes than bands,
    live * (h + 1) < h * (n - h) with h = hi - lo, they are gathered;
    otherwise bands sweep every row, the pivot row too at h = 1. The pivot
    rows are a fixed point of their own step, so either is exact."""
    n, h = d.shape[0], hi - lo
    band = max(1, _CHUNK_BYTES // (n * d.itemsize))
    mask = (d[:, lo:hi] < _CAPS[d.dtype.type]).any(axis=1)
    mask[lo:hi] = False
    live = np.flatnonzero(mask)
    if len(live) * (h + 1) < h * (n - h):
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

    Holds one buffer of 4 * n^2 bytes, 8 * n^2 in uint64 (64 or 128 MiB at the
    functional guard, n = 4096), for the working copy (2 * n^2 bytes of it in
    uint16) and the result; a band and its scratch take _CHUNK_BYTES each.
    """
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")

    def steps(out: np.ndarray) -> None:
        for k in range(n):
            _relax(out, k, k + 1, out[k:k + 1])
    return _closure(d, n, steps)


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

    def rounds(d: np.ndarray) -> None:
        for lo in range(0, n, b):
            hi = lo + b
            pivot = d[lo:hi, lo:hi]
            _minplus(pivot, pivot, pivot)
            if m > 1:
                row = d[lo:hi]
                _minplus(row, pivot.copy(), row.copy())
                _relax(d, lo, hi, row)
    d = _closure(t.tiles.swapaxes(1, 2), n, rounds)
    return TiledMatrix(n, b, m, d.reshape(m, b, m, b).swapaxes(1, 2))
