"""Bit-exact Floyd-Warshall: the in-place min-plus kernel that every path
runs on, the O(N^3) reference and the blocked variant.

Distances are uint32, and addition saturates at INF. The kernels never clamp:
they work below a cap, INF mapped to it, so no sum of two wraps and capped
(min, +) gives min(distance, cap). _closure runs them at the narrowest width
of _CAPS whose cap exceeds w * n.bit_length(), w the largest finite entry,
and keeps the result if the largest entry below the cap, plus w, is below it
too; else it reruns one width up. uint64, capped at INF, is always kept. A
finite distance or cycle at the cap fails the check: a prefix of its shortest
path or cycle is a shortest distance, exact in [cap - w, cap). No mask finds
the cap: w is the max of d's int32 view, where INF reads -1 (an entry of
2^31 or more reads below -1 and forces uint64), and a narrow pass maps its
cap to all ones, x | ((x + 1) & (cap + 1)), which the signed view reads as
-1 and the uint32 result, sign-extended from uint16, as INF.
Both kernels relax their row-major working copy through one row sweep,
_relax, which skips the (row, pivot) pairs at the cap, in the fill-reducing
_pivot_order: fw_reference by windows of it, fw_blocked by rounds; any
order gives one closure. Each closes its window's or round's rows first,
skipping the steps of pivots with no entry below the cap from another of
those rows in their column: no walk inside them reaches such a pivot.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graphs import INF, _tile_grid

# Bytes per band of rows relaxed, scanned or mapped at once (at least one
# row). 256 KiB bands beat 128 KiB ones on n = 512 fw_reference on the Intel
# Xeon (sparse 36.3 -> 32.8 ms, dense 70.7 -> 63.7 ms): fewer calls per step.
_CHUNK_BYTES = 262_144
# Working widths, narrowest first, with their caps: a sum of two fits.
_CAPS = {np.uint16: 2**15 - 1, np.uint32: 2**31 - 1, np.uint64: INF}
# A gathered _minplus call's fixed cost, about 13 us on the Intel Xeon, as
# the entries a band relaxes in that time.
_CALL = 32_768
# Pivots per fw_reference window: 64 beat 32 and 128 at n = 256 and 512 on the
# Intel Xeon (n = 512, density 0.005: 7.5 against 7.6 and 8.7 ms).
_WINDOW = 64


def _closure(d: np.ndarray, n: int, loop) -> np.ndarray:
    """uint32 n x n result of loop(work, spare), which closes a C-ordered n x n
    working copy of d (n^2 entries) in place, at the narrowest exact width;
    spare is an idle n x n array of work's dtype, or None. d must be uint32,
    as the working copy is cast from it unchecked: -1 would wrap, 3.7 would
    truncate and 2^40 would read as INF.

    w is the largest entry of d's int32 view, where INF reads -1. An entry
    in [2^31, INF) reads below -1 and sets w to INF instead, which forces
    uint64: any entry of 2^31 or more fails every narrower width anyway.
    After a narrow pass, x | ((x + 1) & (cap + 1)) maps the cap, 2^15 - 1 or
    2^31 - 1, to all ones and leaves every x < cap as it is, so the check's
    largest entry below the cap is the max of work's signed view, and the
    result needs no mask: all ones is INF in uint32, and in uint16 it reads
    -1, which sign extension widens to INF."""
    if d.dtype != np.uint32:
        raise ConfigError(f"distance matrices must be uint32, got {d.dtype}")
    signed = d.view(np.int32)
    w = int(signed.max(initial=0)) if signed.min(initial=0) >= -1 else INF
    for dtype, cap in _CAPS.items():
        if w * n.bit_length() < cap or cap == INF:
            # A uint16 working copy is the back half of the uint32 result's
            # memory, the front half spare. Clamped in d's width, entries narrow.
            out = np.empty(n * n, np.promote_types(dtype, np.uint32))
            flat = out.view(dtype)[-n * n:]
            work = flat.reshape(n, n)
            np.minimum(d, cap, out=work.reshape(d.shape), casting="unsafe")
            loop(work, out.view(dtype)[:n * n].reshape(n, n) if dtype is np.uint16 else None)
            if cap == INF:
                break
            _cap_to_ones(flat, cap)
            if int(flat.view(f"i{flat.itemsize}").max(initial=0)) + w < cap:
                break
            del out, flat, work  # before the next width's buffer
    # An ascending copy never overtakes its source: entry j goes to bytes
    # [4j, 4j + 4), short of unread entry j + 1 at 2 * n^2 + 2j + 2, so numpy
    # widens the uint16 copy in place, without a temporary.
    if dtype is np.uint16:
        out.view(np.int32)[:] = flat.view(np.int16)
    return out.astype(np.uint32, copy=False).reshape(n, n)


def _cap_to_ones(flat: np.ndarray, cap: int) -> None:
    """Set the entries of flat at cap, 2^15 - 1 or 2^31 - 1, to all ones and
    keep the others, below it: x | ((x + 1) & (cap + 1)). In bands of
    _CHUNK_BYTES; the scalars are typed, so that numpy 1.24 keeps the width."""
    one, top = flat.dtype.type(1), flat.dtype.type(cap + 1)
    step = _CHUNK_BYTES // flat.itemsize
    for r in range(0, len(flat), step):
        x = flat[r:r + step]
        ones = x + one
        ones &= top
        x |= ones


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


def _path(n: int, h: int, live: int, pairs: int, ranks: int) -> str:
    """_relax's cheapest path, in entries touched: h steps on the n - h rows;
    h steps on the live rows plus one for the gather and scatter; or, per
    rank (the most live pairs in a row), _CALL, and per live pair a step, a
    gather of its pivot row and a gather and scatter of its row."""
    bands, rows = h * (n - h) * n, (h + 1) * live * n
    pairwise = 3 * pairs * n + ranks * _CALL
    if bands <= min(rows, pairwise):
        return "bands"
    return "rows" if rows <= pairwise else "pairs"


def _relax(d: np.ndarray, pivots, right: np.ndarray) -> None:
    """FW steps over the h pivots p (a slice or an index array) on the rows
    outside them, against the h pivot rows right, closed over their own
    steps (right[t] <= right[t, p[u]] + right[u]; at h = 1 any row is): for t
    ascending, d[i] = min(d[i], d[i, p[t]] + right[t]).

    A pair (i, t) at the cap when the call starts adds sums >= the cap; if
    step u lowers it, step t adds d[i, p[u]] + right[u, p[t]] + right[t] >=
    d[i, p[u]] + right[u], which step u added. So only the pairs live at the
    start count, in any order, and _path picks, from the live counts, one of
    three exact paths: contiguous bands of every row (not the pivot rows of
    a slice of h > 1; a closed row is a fixed point of the steps), the live
    rows gathered, or one pass per rank r over the live rows' r-th pairs,
    which at h = 1 is the same. Holds the (n, h) bool mask of live pairs,
    their indices, and a band or gathered block of _CHUNK_BYTES (at least a
    row) with _minplus's scratch of its size and, per pass, its pivot rows.
    """
    n, h = d.shape[0], len(right)
    band = max(1, _CHUNK_BYTES // (n * d.itemsize))
    split = isinstance(pivots, slice)
    mask = (d[:, pivots] if split else np.take(d, pivots, axis=1)) < _CAPS[d.dtype.type]
    mask[pivots] = False
    count = mask[:, 0] if h == 1 else mask.view(np.uint8).sum(axis=1, dtype=np.int32)
    live = np.flatnonzero(count)
    pairs, ranks = (len(live), 1) if h == 1 else (int(count.sum()), int(count.max()))
    path = _path(n, h, len(live), pairs, ranks)
    if path == "bands":
        for start, stop in ((0, pivots.start), (pivots.stop, n)) if split and h > 1 else ((0, n),):
            for r in range(start, stop, band):
                block = d[r:min(r + band, stop)]
                _minplus(block, block[:, pivots], right)
    elif path == "rows":
        for r in range(0, len(live), band):
            block = d[live[r:r + band]]
            _minplus(block, block[:, pivots], right)
            d[live[r:r + band]] = block
    else:
        # Live row q's pairs, t ascending, are ts[first[q]:first[q] + count[q]].
        count = count[live]
        first, ts = np.cumsum(count) - count, np.flatnonzero(mask[live]) % h
        cols = np.arange(n)[pivots]
        for r in range(ranks):
            at = np.flatnonzero(count > r)
            for s in range(0, len(at), band):
                rows, t = live[at[s:s + band]], ts[first[at[s:s + band]] + r]
                block = d[rows]
                _minplus(block[:, None], d[rows, cols[t]][:, None, None], right[t][:, None])
                d[rows] = block


def _pivot_order(d: np.ndarray) -> tuple:
    """(order, score): the vertices of the working copy d in ascending in * out
    order (stable), in and out a vertex's off-diagonal entries below the cap
    in its column and row, and each vertex's score in * out. As in
    sparse elimination, such a pivot makes little fill (at most in * out new
    entries), so later steps find fewer live rows; one of score 0 changes
    nothing, its column (or row) at the cap off the diagonal. Counted in
    bands of _CHUNK_BYTES, with no n x n mask."""
    n, cap = len(d), _CAPS[d.dtype.type]
    fan_in, fan_out = np.zeros(n, np.int64), np.zeros(n, np.int64)
    band = max(1, _CHUNK_BYTES // max(n, 1))
    for r in range(0, n, band):
        finite = (d[r:r + band] < cap).view(np.uint8)
        fan_in += finite.sum(axis=0, dtype=np.int32)
        fan_out[r:r + band] = finite.sum(axis=1, dtype=np.int32)
    loop = np.diagonal(d) < cap
    score = (fan_in - loop) * (fan_out - loop)
    return np.argsort(score, kind="stable"), score


def _live_runs(p: np.ndarray) -> list:
    """The maximal runs [s, e) of pivot tile p's live pivots, ascending: the t
    with an off-diagonal entry below the cap in column t. Counted in bands of
    _CHUNK_BYTES, with no b x b mask."""
    b, cap = len(p), _CAPS[p.dtype.type]
    band, fan_in = max(1, _CHUNK_BYTES // b), 0
    for r in range(0, b, band):
        fan_in += (p[r:r + band] < cap).view(np.uint8).sum(axis=0, dtype=np.int32)
    runs = []
    for t in np.flatnonzero(fan_in > (np.diagonal(p) < cap)).tolist():
        if runs and runs[-1][1] == t:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1])
    return runs


def fw_reference(d: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths: the classic triple loop (inner two
    loops vectorized; identical results for unsigned weights), over the
    pivots k of _pivot_order with in * out > 0. Any order gives the same
    closure: after the steps over a set S, d[i, j] is the shortest walk with
    inner vertices in S.

    The pivots run in windows W of _WINDOW, as fw_blocked's rounds: aliased
    _minplus calls step through W's live pivots (fw_blocked's rule, read from
    g[:, W]) on the gathered rows g = d[W], which read only rows W, and close
    them; then d[W] = g, and _relax runs steps W on the other rows against g.

    Holds one buffer of 4 * n^2 bytes, 8 * n^2 in uint64 (64 or 128 MiB at the
    functional guard, n = 4096), for the working copy (2 * n^2 bytes of it in
    uint16) and the result; a window's rows, their _minplus scratch and
    _relax's pivot columns, _WINDOW * n entries each, and the columns' mask; a
    band and its scratch, _CHUNK_BYTES each; and the pivot order and scores.
    """
    n = d.shape[0]
    if d.shape != (n, n):
        raise ConfigError("distance matrix must be square")

    def steps(out: np.ndarray, _) -> None:
        order, score = _pivot_order(out)
        rest, cap = order[np.count_nonzero(score == 0):], _CAPS[out.dtype.type]
        for s in range(0, len(rest), _WINDOW):
            w = rest[s:s + _WINDOW]
            g = out[w]
            inner = g[:, w] < cap
            for t in np.flatnonzero(inner.sum(axis=0) > np.diagonal(inner)).tolist():
                _minplus(g, g[:, w[t]:w[t] + 1], g[t:t + 1])
            out[w] = g
            _relax(out, w, g)
    return _closure(d, n, steps)


def fw_blocked(tiles: np.ndarray) -> np.ndarray:
    """Blocked Floyd-Warshall over (m, m, b, b) tiles, on one row-major copy d.

    Round k, K the rows and columns of pivot tile k, P = d[K, K], R = d[K]:
    aliased _minplus calls run FW steps K on rows K alone, which read only
    rows K, so they close P and turn R into Q (x) R, Q = I (+) P (the pivot
    and pivot-row phases; at m = 1 K is every row, and this is the whole
    closure). _relax runs steps K on every other row against these rows:
    pre-round pivot columns C give C (x) Q (x) R, and the K columns
    C (+) C (x) P = C (x) Q, the pivot-column phase too. The four-phase tile
    order lives in the scheduler and the tests' naive_blocked.

    At every m the pivot-row pass steps only through the live pivots: the t
    of K with an off-diagonal entry below the cap in column t of P when the
    round starts, one call per maximal run of them, ascending. A step t that
    is not live changes no row, whatever the diagonal: an entry d[r, t],
    r != t, below the cap during the pass is a walk r -> t inside K, whose
    last entry d[u, t], u in K, u != t, was already below the cap; so column
    t of rows K stays at the cap off the diagonal, and row t gains nothing
    from d[t, t] + d[t]. A round with no live pivot skips the pass.

    With a spare array from _closure, d is permuted into _pivot_order
    (score-0 and padding vertices first) for the rounds, so the dense core
    falls in the last ones; unless the first b pivots' fill (at most the sum
    of their scores) reaches n * m entries, one per row and round, so that
    every round sweeps anyway. Returns an (m, m, b, b) view of the row-major
    result, equal to fw_reference's.
    """
    m, b = _tile_grid(tiles)
    n = m * b

    def rounds(d: np.ndarray, spare) -> None:
        order, score = _pivot_order(d) if spare is not None else (None, None)
        permute = order is not None and score[order[:b]].sum() < n * m
        if permute:  # rows into spare, columns back; a "clip" take writes unbuffered
            np.take(np.take(d, order, 0, spare, "clip"), order, 1, d, "clip")
        for lo in range(0, n, b):
            row = d[lo:lo + b]
            for s, e in _live_runs(row[:, lo:lo + b]):
                _minplus(row, row[:, lo + s:lo + e], row[s:e])
            _relax(d, slice(lo, lo + b), row)
        if permute:
            order = np.argsort(order)
            np.take(np.take(d, order, 0, spare, "clip"), order, 1, d, "clip")
    d = _closure(tiles.swapaxes(1, 2), n, rounds)
    return d.reshape(m, b, m, b).swapaxes(1, 2)
