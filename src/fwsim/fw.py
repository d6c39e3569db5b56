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
relax their row-major working copy through one row sweep, _relax, which
skips the (row, pivot) pairs at the cap. fw_reference visits pivots in a
fill-reducing order, fw_blocked tile by tile; any order gives one closure.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF, TiledMatrix

# Bytes per band of rows relaxed at once by _relax (at least one row): band
# plus kernel scratch take 512 KiB, one core's L2 on the AMD EPYC.
_CHUNK_BYTES = 262_144
# Working widths, narrowest first, with their caps: a sum of two fits.
_CAPS = {np.uint16: 2**15 - 1, np.uint32: 2**31 - 1, np.uint64: INF}
# A gathered _minplus call's fixed cost, about 13 us on the Intel Xeon, as
# the entries a band relaxes in that time.
_CALL = 32_768


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
    _minplus(d, d, d) Floyd-Warshall, and _minplus(r, r[:, K], r) its steps
    K on the rows r = d[K] (fw_blocked's pivot-row pass). All three
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


def _gather(d: np.ndarray, rows: np.ndarray, pivots: slice, right: np.ndarray,
            band: int) -> None:
    """_minplus(d[rows], d[rows][:, pivots], right), the rows gathered and
    scattered back band rows at a time."""
    for r in range(0, len(rows), band):
        idx = rows[r:r + band]
        block = d[idx]
        _minplus(block, block[:, pivots], right)
        d[idx] = block


def _path(n: int, h: int, live: int, pairs: int) -> str:
    """_relax's cheapest path, in entries touched: h steps on the n - h rows;
    h steps on the live rows plus one for the gather and scatter; or, per
    pivot column, a step and a gather and scatter per live pair, plus _CALL."""
    bands, rows = h * (n - h) * n, (h + 1) * live * n
    columns = 2 * pairs * n + h * _CALL
    if bands <= min(rows, columns):
        return "bands"
    return "rows" if rows <= columns else "columns"


def _relax(d: np.ndarray, lo: int, hi: int, right: np.ndarray) -> None:
    """FW steps lo..hi - 1 on the rows outside lo:hi against the h = hi - lo
    pivot rows right, closed over their own steps (right[t] <= right[t, lo +
    u] + right[u]; at h = 1 any row is): for t ascending, d[i] = min(d[i],
    d[i, lo + t] + right[t]).

    A pair (i, t) at the cap when the call starts adds sums >= the cap; if
    step u < t lowers it, step t adds d[i, lo + u] + right[u, lo + t] +
    right[t] >= d[i, lo + u] + right[u], which step u added. So _path picks,
    from the live counts, one of three exact paths: contiguous bands of
    every row (the pivot row too at h = 1, a fixed point of its own step),
    the live rows gathered, or per t the rows live at t gathered, which at
    h = 1 is the same. Holds the (n, h) bool mask of live pairs (and its
    transpose per t), up to n row indices, and a band or gathered block
    of _CHUNK_BYTES (at least a row) with _minplus's scratch of its size.
    """
    n, h = d.shape[0], hi - lo
    cap = _CAPS[d.dtype.type]
    band = max(1, _CHUNK_BYTES // (n * d.itemsize))
    mask = d[:, lo:hi] < cap
    mask[lo:hi] = False
    live = np.flatnonzero(mask if h == 1 else mask.any(axis=1))
    pairs = len(live) if h == 1 else np.count_nonzero(mask)
    path = _path(n, h, len(live), pairs)
    if path == "bands":
        for start, stop in ((0, n),) if h == 1 else ((0, lo), (hi, n)):
            for r in range(start, stop, band):
                block = d[r:min(r + band, stop)]
                _minplus(block, block[:, lo:hi], right)
    elif path == "rows" or h == 1:
        _gather(d, live, slice(lo, hi), right, band)
    else:
        for t, at in enumerate(np.ascontiguousarray(mask.T)):
            _gather(d, np.flatnonzero(at), slice(lo + t, lo + t + 1), right[t:t + 1], band)


def _pivot_order(d: np.ndarray) -> list:
    """fw_reference's pivots in ascending in * out order (stable), in and out
    a vertex's finite off-diagonal entries in its column and row: as in
    sparse elimination, such a pivot makes little fill, so later steps find
    fewer live rows. A vertex with in or out 0 is left out: that column (or
    row) stays at the cap off the diagonal, so its step changes nothing.
    Counted in bands of _CHUNK_BYTES, with no n x n mask."""
    n = len(d)
    fan_in, fan_out = np.zeros(n, np.int64), np.zeros(n, np.int64)
    band = max(1, _CHUNK_BYTES // max(n, 1))
    for r in range(0, n, band):
        finite = d[r:r + band] != INF
        fan_in += finite.sum(axis=0)
        fan_out[r:r + band] = finite.sum(axis=1)
    loop = np.diagonal(d) != INF
    score = (fan_in - loop) * (fan_out - loop)
    order = np.argsort(score, kind="stable")
    return order[np.count_nonzero(score == 0):].tolist()


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic triple loop (inner two
    loops vectorized; identical results for unsigned weights), one _relax per
    pivot k in _pivot_order. Any order gives the same closure: after the
    steps over a set S, d[i, j] is the shortest walk with inner vertices in S.

    Holds one buffer of 4 * n^2 bytes, 8 * n^2 in uint64 (64 or 128 MiB at the
    functional guard, n = 4096), for the working copy (2 * n^2 bytes of it in
    uint16) and the result; a band and its scratch take _CHUNK_BYTES each,
    and the pivot order n ints.
    """
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")

    def steps(out: np.ndarray) -> None:
        for k in _pivot_order(d):
            _relax(out, k, k + 1, out[k:k + 1])
    return _closure(d, n, steps)


def fw_blocked(t: TiledMatrix) -> TiledMatrix:
    """Blocked Floyd-Warshall over a tiled matrix, on one row-major copy d.

    Round k, K the rows and columns of pivot tile k, P = d[K, K], R = d[K]:
    one aliased _minplus runs FW steps K on rows K alone, which read only
    rows K, so it closes P and turns R into Q (x) R, Q = I (+) P (the pivot
    and pivot-row phases; at m = 1 the whole closure). _relax runs steps K on
    every other row against these rows: pre-round pivot columns C give
    C (x) Q (x) R, and the K columns C (+) C (x) P = C (x) Q, the pivot-column
    phase too. The four-phase tile order lives in the scheduler and the
    tests' naive_blocked. Returns tiles that view the row-major result,
    equal to fw_reference's.
    """
    n, b, m = t.n, t.b, t.m

    def rounds(d: np.ndarray) -> None:
        for lo in range(0, n, b):
            hi = lo + b
            row = d[lo:hi]
            _minplus(row, row[:, lo:hi], row)
            if m > 1:
                _relax(d, lo, hi, row)
    d = _closure(t.tiles.swapaxes(1, 2), n, rounds)
    return TiledMatrix(n, b, m, d.reshape(m, b, m, b).swapaxes(1, 2))
