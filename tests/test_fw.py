"""Functional Floyd-Warshall: scalar kernel, reference, and blocked variant.

Two independent oracles guard the reference itself: exhaustive simple-path
enumeration for tiny graphs, and scipy's shortest_path for medium ones. The
blocked variant is then checked element-exact against the reference.
"""

import tracemalloc
from collections import namedtuple
from functools import cache
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.sparse.csgraph import csgraph_from_dense, shortest_path

from fwsim import (
    INF,
    build_distance_matrix,
    from_tile_major,
    fw_blocked,
    fw_reference,
    gen_synthetic,
    to_tile_major,
)
from fwsim import fw
from fwsim.errors import ConfigError
from fwsim.fw import _minplus
from reference_scheduler import TilePhase, full_trace, round_records


def min_plus(d_ij: int, d_ik: int, d_kj: int) -> int:
    """Scalar oracle of one relaxation: min(d_ij, d_ik + d_kj), the sum
    saturating at INF."""
    return min(d_ij, min(d_ik + d_kj, INF))


def saturating_add(a, b) -> np.ndarray:
    """Elementwise uint32 addition that saturates at INF instead of wrapping."""
    return np.minimum(np.add(a, b, dtype=np.uint64), INF).astype(np.uint32)


def tile_minplus_update(a_ij, a_ik, a_kj):
    """Min-plus matrix product accumulated into a copy of a_ij, on uint32 tiles:
    result[r][c] = min(a_ij[r][c], min over t of a_ik[r][t] + a_kj[t][c]).

    The kernel runs on uint64 copies, so the inputs are read as snapshots even
    when a_kj aliases a_ij; the result is cast back to uint32.
    """
    out = a_ij.astype(np.uint64)
    _minplus(out, a_ik.astype(np.uint64), a_kj.astype(np.uint64))
    return out.astype(np.uint32)


def enumerate_apsp(d):
    """Brute-force oracle: minimum over all simple paths (n <= ~7)."""
    n = d.shape[0]
    best = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            others = [v for v in range(n) if v not in (i, j)]
            for r in range(len(others) + 1):
                for mid in permutations(others, r):
                    path = (i, *mid, j)
                    cost = 0
                    for a, b in zip(path, path[1:]):
                        cost += int(d[a, b])
                        if cost >= INF:
                            cost = INF
                            break
                    best[i][j] = min(best[i][j], cost)
    return np.array(best, dtype=np.uint32)


def scipy_apsp(d):
    """scipy's distances. The graph is built with INF as its null value: a
    dense matrix would read each zero weight as a missing edge."""
    f = d.astype(np.float64)
    f[f == INF] = np.inf
    res = shortest_path(csgraph_from_dense(f, null_value=np.inf), method="D")
    out = np.where(np.isinf(res), INF, res)
    return out.astype(np.uint32)


class TestMinPlus:
    def test_relax_improves(self):
        assert min_plus(10, 3, 4) == 7

    def test_existing_path_shorter(self):
        assert min_plus(2, 3, 4) == 2

    def test_inf_saturation(self):
        assert min_plus(INF, INF, 5) == INF

    def test_finite_overflow_saturates_not_wraps(self):
        # 0xFFFFFFF0 + 0x20 wraps to 0x10 in uint32; saturation keeps 5.
        assert min_plus(5, 0xFFFFFFF0, 0x20) == 5

    def test_inf_neutral_for_min_absorbing_for_add(self):
        for x in (0, 1, 12345, INF - 1, INF):
            assert min_plus(x, INF, 0) == x
            assert min_plus(INF, x, INF) == INF

    def test_zero_identity(self):
        assert min_plus(9, 0, 9) == 9
        assert min_plus(9, 9, 0) == 9

    def test_saturating_add_array_boundary(self):
        a = np.array([INF, INF - 1, 1, 0xFFFFFFF0], dtype=np.uint32)
        b = np.array([1, 1, 2, 0x20], dtype=np.uint32)
        out = saturating_add(a, b)
        assert out.tolist() == [INF, INF, 3, INF]
        assert out.dtype == np.uint32


# Distances at and near INF, where a wrapping or clamping kernel would differ.
DISTANCES = st.one_of(
    st.sampled_from([0, 1, 2, INF // 2, INF // 2 + 1, INF - 2, INF - 1, INF]),
    st.integers(0, INF),
)
# The same at and near the uint32 working width's cap, 2^31 - 1.
CAP = 2**31 - 1
NARROW_DISTANCES = st.one_of(
    st.sampled_from([0, 1, 2, CAP // 2, CAP // 2 + 1, CAP - 2, CAP - 1, CAP]),
    st.integers(0, CAP),
)
# And at and near the uint16 working width's cap, 2^15 - 1.
CAP16 = 2**15 - 1
UINT16_DISTANCES = st.one_of(
    st.sampled_from([0, 1, 2, CAP16 // 2, CAP16 // 2 + 1, CAP16 - 2, CAP16 - 1, CAP16]),
    st.integers(0, CAP16),
)


def scalar_minplus(out, left, right):
    """_minplus written out one element at a time: step t relaxes out[s, r, c]
    with left[s, r, t] + right[s, t, c], both read as they stood before step t
    (an operand that is out reads out's values after step t - 1)."""
    result = out.astype(object)
    left, right = (result if a is out else a for a in (left, right))
    for t in range(left.shape[-1]):
        lt, rt = left[..., :, t].copy(), right[..., t, :].copy()
        for s, r, c in np.ndindex(result.shape):
            result[s, r, c] = min_plus(result[s, r, c], int(lt[s, r]), int(rt[s, c]))
    return result.astype(np.uint32)


@st.composite
def stacks(draw, aliased, dtype=np.uint64):
    """(out, left, right) stacks of dtype, uint64 drawn up to INF, uint32 up
    to CAP or uint16 up to CAP16: one square matrix used three times, or three
    stacks of compatible shapes."""
    distances = {np.uint64: DISTANCES, np.uint32: NARROW_DISTANCES,
                 np.uint16: UINT16_DISTANCES}[dtype]
    s, r = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    t, c = (r, r) if aliased else (draw(st.integers(1, 5)), draw(st.integers(1, 5)))

    def array(shape):
        values = draw(st.lists(distances, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        return np.array(values, dtype=dtype).reshape(shape)

    out = array((s, r, c))
    return (out, out, out) if aliased else (out, array((s, r, t)), array((s, t, c)))


class TestMinPlusKernel:
    """_minplus against the scalar saturating oracle: uint64 operands near and
    at INF, uint32 operands near and at CAP, uint16 ones near and at CAP16."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(stacks(aliased=False))
    def test_unaliased(self, case):
        out, left, right = case
        expected = scalar_minplus(out, left, right)
        _minplus(out, left, right)
        assert np.array_equal(out, expected)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(stacks(aliased=True))
    def test_aliased(self, case):
        out, _, _ = case
        expected = scalar_minplus(out, out, out)
        _minplus(out, out, out)
        assert np.array_equal(out, expected)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(stacks(aliased=False, dtype=np.uint32))
    def test_unaliased_uint32(self, case):
        out, left, right = case
        expected = scalar_minplus(out, left, right)
        _minplus(out, left, right)
        assert np.array_equal(out, expected)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(stacks(aliased=True, dtype=np.uint32))
    def test_aliased_uint32(self, case):
        out, _, _ = case
        expected = scalar_minplus(out, out, out)
        _minplus(out, out, out)
        assert np.array_equal(out, expected)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(stacks(aliased=False, dtype=np.uint16))
    def test_unaliased_uint16(self, case):
        out, left, right = case
        expected = scalar_minplus(out, left, right)
        _minplus(out, left, right)
        assert np.array_equal(out, expected)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(stacks(aliased=True, dtype=np.uint16))
    def test_aliased_uint16(self, case):
        out, _, _ = case
        expected = scalar_minplus(out, out, out)
        _minplus(out, out, out)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("narrow", range(3))
    def test_rejects_a_uint32_operand(self, narrow):
        # Mixed widths: the scratch takes out's dtype, so uint64 operands
        # summed into a uint32 scratch would wrap.
        operands = [np.full((1, 2, 2), INF, dtype=np.uint64) for _ in range(3)]
        operands[narrow] = operands[narrow].astype(np.uint32)
        with pytest.raises(TypeError):
            _minplus(*operands)

    # Only the widths in fw._CAPS are working widths.
    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.int32, np.float64])
    def test_rejects_other_dtypes(self, dtype):
        operands = [np.zeros((1, 2, 2), dtype=dtype) for _ in range(3)]
        with pytest.raises(TypeError):
            _minplus(*operands)


class TestReference:
    def test_three_vertex_chain(self):
        d = np.array(
            [[0, 2, INF], [INF, 0, 3], [INF, INF, 0]], dtype=np.uint32
        )
        expected = [[0, 2, 5], [INF, 0, 3], [INF, INF, 0]]
        assert fw_reference(d).tolist() == expected

    def test_all_off_diagonal_inf_unchanged(self):
        d = np.full((6, 6), INF, dtype=np.uint32)
        np.fill_diagonal(d, 0)
        assert np.array_equal(fw_reference(d), d)

    def test_against_path_enumeration_complete_graphs(self):
        for seed in range(6):
            d = build_distance_matrix(gen_synthetic(5, 1.0, seed=seed))
            assert np.array_equal(fw_reference(d), enumerate_apsp(d))

    def test_against_path_enumeration_sparse(self):
        for seed in range(6):
            d = build_distance_matrix(gen_synthetic(6, 0.3, seed=100 + seed))
            assert np.array_equal(fw_reference(d), enumerate_apsp(d))

    def test_against_scipy_medium(self):
        for seed, n, density in [(0, 24, 0.15), (1, 48, 0.4), (2, 32, 1.0)]:
            d = build_distance_matrix(gen_synthetic(n, density, seed=seed))
            assert np.array_equal(fw_reference(d), scipy_apsp(d))

    def test_zero_weight_edges_against_scipy(self):
        # A third of the edges weigh 0: paths through them are the shortest.
        d = build_distance_matrix(gen_synthetic(32, 0.15, seed=4))
        d[(d < INF) & (np.random.default_rng(4).random(d.shape) < 1 / 3)] = 0
        assert np.array_equal(fw_reference(d), scipy_apsp(d))

    def test_idempotence(self):
        d = build_distance_matrix(gen_synthetic(40, 0.3, seed=9))
        once = fw_reference(d)
        assert np.array_equal(fw_reference(once), once)

    def test_triangle_inequality_on_output(self):
        d = build_distance_matrix(gen_synthetic(30, 0.4, seed=10))
        r = fw_reference(d)
        for k in range(30):
            bound = saturating_add(r[:, k, None], r[k, None, :])
            assert (r <= bound).all()

    def test_monotone_vs_input(self):
        d = build_distance_matrix(gen_synthetic(30, 0.5, seed=11))
        assert (fw_reference(d) <= d).all()

    def test_input_not_mutated(self):
        d = build_distance_matrix(gen_synthetic(10, 0.8, seed=12))
        snapshot = d.copy()
        fw_reference(d)
        assert np.array_equal(d, snapshot)

    # Cast to uint32, -1 would read 65535, 3.7 would read 3 and 2^40 INF.
    @pytest.mark.parametrize("d", [
        np.array([[0, -1], [5, 0]]),
        np.array([[0, 3.7], [5, 0]]),
        np.array([[0, 2**40], [5, 0]], dtype=np.uint64),
        np.zeros((2, 3), dtype=np.uint32),
    ], ids=["int64", "float64", "uint64", "not-square"])
    def test_refuses_all_but_a_square_uint32_matrix(self, d):
        with pytest.raises(ConfigError):
            fw_reference(d)


def scalar_fw(d):
    """Floyd-Warshall one relaxation at a time on the scalar min_plus oracle;
    unlike enumerate_apsp it keeps a nonzero diagonal and takes n = 0."""
    out = d.astype(object)
    for k in range(len(d)):
        for i in range(len(d)):
            for j in range(len(d)):
                out[i, j] = min_plus(out[i, j], out[i, k], out[k, j])
    return out.astype(np.uint32)


def path_graph(n, w):
    """0 -> 1 -> ... -> n - 1, every edge of weight w."""
    d = np.full((n, n), INF, dtype=np.uint32)
    np.fill_diagonal(d, 0)
    d[np.arange(n - 1), np.arange(1, n)] = w
    return d


@pytest.fixture
def widths(monkeypatch):
    """For each fw._closure call, in order, the list of working dtypes its
    passes ran in: the last is the width whose result it accepted."""
    calls = []
    closure = fw._closure

    def spied_closure(d, n, loop):
        tried = []
        calls.append(tried)

        def logged(work, spare):
            tried.append(work.dtype.type)
            loop(work, spare)

        return closure(d, n, logged)

    monkeypatch.setattr(fw, "_closure", spied_closure)
    return calls


def chain(weights):
    """The path graph 0 -> 1 -> ... -> len(weights), edge i of weights[i]."""
    d = path_graph(len(weights) + 1, INF)
    d[np.arange(len(weights)), np.arange(1, len(weights) + 1)] = weights
    return d


class TestWidth:
    """Each kernel works in uint16, uint32 or uint64: the narrowest width
    tried, as w * n.bit_length() is below its cap (w the largest finite
    entry), whose result passes the check: the largest entry below the cap,
    plus w, is below it too. uint64 always passes. Either way the distances
    are the same."""

    CASES = {
        # A plain (n - 1) bound would take this narrow and wrap 3e9.
        "one-vertex-3e9": (np.array([[3_000_000_000]], dtype=np.uint32), [np.uint64]),
        # (n - 1) * w = 6 * 357_913_941 = 2^31 - 2, the chain 0 -> 6: exact
        # in uint32, but 2^31 - 2 + w fails the check, so it reruns in uint64.
        "path-cap-minus-1": (path_graph(7, (2**31 - 2) // 6), [np.uint32, np.uint64]),
        # (n - 1) * w = 2^31 - 1, which is prime: n = 2.
        "path-at-cap": (path_graph(2, 2**31 - 1), [np.uint64]),
        "no-edges": (path_graph(5, INF), [np.uint16]),
        "empty": (np.zeros((0, 0), dtype=np.uint32), [np.uint16]),
        # w = 2100 over 17 vertices: 16 * w >= 2^15 - 1 > 5 * w, so uint16
        # is tried. The longest distance is 2^15 - 1 - w - 1, which passes
        # the check, and one more, 2^15 - 1 - w, fails it.
        "check-passes": (chain([2100] * 14 + [633, 633]), [np.uint16]),
        "check-fails": (chain([2100] * 14 + [633, 634]), [np.uint16, np.uint32]),
        # One edge of w further, 2^15 - 1 itself: kept in uint16 it reads INF.
        "check-at-cap": (chain([2100] * 14 + [633, 634, 2100]), [np.uint16, np.uint32]),
        # Clamped after narrowing, 70,000 would wrap to 4,464.
        "edge-70000": (chain([70_000, 5]), [np.uint32]),
        # (n - 1) * w = 32,000 is below 2^15 - 1, but with no zero diagonal
        # the 3-cycle 0 -> 1 -> 2 -> 0 of 48,000 is each vertex's distance to
        # itself. Its prefix of 32,000 fails the check: kept in uint16 the
        # cycle would read INF.
        "cycle-3x16000": (np.array([[INF, 16_000, INF], [INF, INF, 16_000],
                                    [16_000, INF, INF]], dtype=np.uint32),
                          [np.uint16, np.uint32]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_reference(self, name, widths):
        d, tried = self.CASES[name]
        n = len(d)
        got = fw_reference(d)
        assert widths == [tried]
        assert got.dtype == np.uint32
        assert np.array_equal(got, scalar_fw(d))
        if name.startswith("path"):
            assert np.array_equal(got, enumerate_apsp(d))
            assert int(got[0, n - 1]) == (n - 1) * int(d[0, 1])
        if name.startswith(("check", "edge")):
            assert int(got[0, n - 1]) == int(d[np.arange(n - 1), np.arange(1, n)].sum())

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("whole", [False, True], ids=["b=1", "b=n"])
    def test_blocked(self, name, whole, widths):
        d, tried = self.CASES[name]
        n = len(d)
        padded = max(n, 1)
        t = to_tile_major(d, padded if whole else 1)
        assert t.shape == ((1, 1, padded, padded) if whole else (padded, padded, 1, 1))
        out = fw_blocked(t)
        assert widths == [tried]
        assert out.shape == t.shape and out.dtype == np.uint32
        assert np.array_equal(from_tile_major(out, n), scalar_fw(d))
        assert np.array_equal(out, naive_blocked(t))


class TestTileKernels:
    def test_pivot_fw_singleton(self):
        assert fw_reference(np.array([[0]], dtype=np.uint32)).tolist() == [[0]]

    def test_pivot_fw_two_vertices_no_shortcut(self):
        t = np.array([[0, 5], [1, 0]], dtype=np.uint32)
        assert fw_reference(t).tolist() == [[0, 5], [1, 0]]

    def test_update_all_inf_sources_is_identity(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 100, size=(4, 4)).astype(np.uint32)
        inf = np.full((4, 4), INF, dtype=np.uint32)
        assert np.array_equal(tile_minplus_update(a, inf, inf), a)

    def test_update_identity_tiles_set_diagonal(self):
        eye = np.full((2, 2), INF, dtype=np.uint32)
        np.fill_diagonal(eye, 0)
        target = np.full((2, 2), INF, dtype=np.uint32)
        out = tile_minplus_update(target, eye, eye)
        assert out.tolist() == [[0, INF], [INF, 0]]

    def test_update_against_brute_force(self):
        rng = np.random.default_rng(15)
        for b in (1, 2, 3, 5, 8):
            a_ij = rng.integers(0, 50, size=(b, b)).astype(np.uint32)
            a_ik = rng.integers(0, 50, size=(b, b)).astype(np.uint32)
            a_kj = rng.integers(0, 50, size=(b, b)).astype(np.uint32)
            expected = a_ij.copy()
            for r in range(b):
                for c in range(b):
                    for t in range(b):
                        expected[r, c] = min_plus(
                            int(expected[r, c]), int(a_ik[r, t]), int(a_kj[t, c])
                        )
            assert np.array_equal(tile_minplus_update(a_ij, a_ik, a_kj), expected)

    def test_update_snapshot_semantics_when_aliased(self):
        rng = np.random.default_rng(16)
        a = rng.integers(1, 60, size=(4, 4)).astype(np.uint32)
        pivot = rng.integers(1, 60, size=(4, 4)).astype(np.uint32)
        expected = a.copy()
        snap = a.copy()
        for r in range(4):
            for c in range(4):
                for t in range(4):
                    expected[r, c] = min_plus(
                        int(expected[r, c]), int(pivot[r, t]), int(snap[t, c])
                    )
        assert np.array_equal(tile_minplus_update(a, pivot, a), expected)


def naive_blocked(t):
    """Blocked FW one tile at a time, in the four phases of each round (pivot,
    pivot row, pivot column, wavefront); used to pin fw_blocked, which folds
    the pivot column into its row bands."""
    tiles = t.copy()
    for k in range(len(t)):
        tiles[k, k] = fw_reference(tiles[k, k])
        others = [x for x in range(len(t)) if x != k]
        for j in others:
            tiles[k, j] = tile_minplus_update(tiles[k, j], tiles[k, k], tiles[k, j])
        for i in others:
            tiles[i, k] = tile_minplus_update(tiles[i, k], tiles[i, k], tiles[k, k])
        for i in others:
            for j in others:
                tiles[i, j] = tile_minplus_update(tiles[i, j], tiles[i, k], tiles[k, j])
    return tiles


Step = namedtuple("Step", "n pivots sliced live pairs ranks relaxed ran")


@pytest.fixture
def spy(monkeypatch):
    """Record a Step for each fw._relax call: the matrix order n, the pivots
    (a list) and whether they came as a slice, the live rows (outside the
    pivots, with a pivot entry below the working cap), the live (row, pivot)
    pairs and the most in one row (the ranks) before the call, the (row,
    step) pairs that fw._minplus relaxed during it, and the pivots whose
    steps closed the pivot rows before it, in the order run: fw_blocked's
    pivot-row pass over a slice, or fw_reference's steps over its gathered
    window. Also count every (row, step) pair that fw._minplus relaxes,
    stacked rows included.

    The closing steps must be exactly the live pivots: those with an entry
    below the cap from another pivot row in their column of the pivot rows.
    Closing the rows keeps that set (a new entry d[r, t] is a walk whose
    last entry, from u != t, was there before), so it is read from the
    closed rows at the _relax call that follows."""
    log = SimpleNamespace(steps=[], relaxed=0, calls=[])
    relax, minplus = fw._relax, fw._minplus

    def spied_relax(d, pivots, right):
        cap = fw._CAPS[d.dtype.type]
        cols = np.arange(len(d))[pivots]
        outside = np.setdiff1d(np.arange(len(d)), cols)
        count = (d[np.ix_(outside, cols)] < cap).sum(axis=1)
        between = d[np.ix_(cols, cols)] < cap
        np.fill_diagonal(between, False)
        # A closing call over the pivot rows right (the view d[pivots] of a
        # slice, or a window's gathered rows): steps t:t + h of right, as
        # columns cols[t:t + h] (left) and rows right[t:t + h].
        ran = []
        for out, shape, left, first, h in log.calls:
            if (out, shape) == (right.ctypes.data, right.shape):
                t = (first - out) // right.strides[0]
                assert left == out + cols[t] * d.itemsize
                ran += cols[t:t + h].tolist()
        assert ran == cols[between.any(axis=0)].tolist()
        log.calls.clear()
        before = log.relaxed
        relax(d, pivots, right)
        log.calls.clear()
        log.steps.append(Step(len(d), cols.tolist(), isinstance(pivots, slice),
                              int(np.count_nonzero(count)), int(count.sum()),
                              int(count.max(initial=0)), log.relaxed - before, ran))

    def spied_minplus(out, left, right):
        log.relaxed += int(np.prod(out.shape[:-1])) * left.shape[-1]
        log.calls.append((out.ctypes.data, out.shape, left.ctypes.data,
                          right.ctypes.data, right.shape[-2]))
        minplus(out, left, right)

    monkeypatch.setattr(fw, "_relax", spied_relax)
    monkeypatch.setattr(fw, "_minplus", spied_minplus)
    return log


def relaxed_by(step, path):
    """The (row, step) pairs one _relax call relaxes on a path: "bands" the
    n - h rows outside a slice of h > 1 pivots, and every row otherwise,
    over h steps; "rows" the live rows over h steps; "pairs" each live pair
    once (at h = 1, the live rows)."""
    n, h = step.n, len(step.pivots)
    swept = n - h if step.sliced and h > 1 else n
    return {"bands": swept * h, "rows": step.live * h, "pairs": step.pairs}[path]


def taken(step):
    """The path a _relax call took, after checking that it is the one the
    rule picks and relaxed what that path relaxes. The rule costs each path
    in entries: "bands", contiguous bands of the rows outside the pivots,
    h (n - h) n; "rows", the live rows gathered, (h + 1) live n; "pairs", a
    pass per rank, 3 pairs n + ranks fw._CALL (at h = 1, one rank). The
    cheapest wins, ties in that order."""
    n, h = step.n, len(step.pivots)
    ranks = 1 if h == 1 else step.ranks
    costs = {"bands": h * (n - h) * n, "rows": (h + 1) * step.live * n,
             "pairs": 3 * step.pairs * n + ranks * fw._CALL}
    path = min(costs, key=costs.get)
    assert step.relaxed == relaxed_by(step, path), (step, path)
    return path


def windowed(steps, d, passes=1):
    """Check fw_reference's calls over its passes (widths tried): one
    index-array _relax per window, the windows kept_pivots(d) in order,
    fw._WINDOW at a time (the last may be shorter); the spy checks that each
    window's closing steps are its live pivots. Returns the closing steps
    of each window."""
    kept = kept_pivots(d)
    assert [step.pivots for step in steps] == [
        kept[s:s + fw._WINDOW] for s in range(0, len(kept), fw._WINDOW)] * passes
    assert not any(step.sliced for step in steps)
    return [step.ran for step in steps]


class TestBlocked:
    def test_single_tile_degenerate(self):
        d = build_distance_matrix(gen_synthetic(12, 0.5, seed=17))
        t = to_tile_major(d, 12)
        out = fw_blocked(t)
        assert np.array_equal(from_tile_major(out, 12), fw_reference(d))
        trace = full_trace(len(t))
        assert len(trace) == 1
        assert trace[0].phase is TilePhase.PIVOT_FW

    def test_oracle_equivalence_sweep(self):
        cases = [
            (8, 0.5, 2), (8, 1.0, 3), (16, 0.1, 4), (16, 0.5, 16),
            (24, 0.3, 5), (32, 0.5, 8), (48, 0.2, 16), (64, 0.1, 4),
            (64, 0.5, 64), (33, 0.4, 8),
        ]
        for seed, (n, density, b) in enumerate(cases):
            d = build_distance_matrix(gen_synthetic(n, density, seed=200 + seed))
            out = fw_blocked(to_tile_major(d, b))
            assert np.array_equal(from_tile_major(out, n), fw_reference(d)), (
                n, density, b,
            )

    def test_matches_naive_per_record_blocked(self):
        for seed, (n, b) in enumerate([(12, 4), (20, 5), (24, 8), (9, 2)]):
            d = build_distance_matrix(gen_synthetic(n, 0.5, seed=300 + seed))
            t = to_tile_major(d, b)
            out = fw_blocked(t)
            assert np.array_equal(out, naive_blocked(t))

    def test_huge_weights_saturate_consistently(self):
        d = build_distance_matrix(
            gen_synthetic(16, 0.6, weight_range=(2_000_000_000, 4_000_000_000), seed=18)
        )
        out = fw_blocked(to_tile_major(d, 4))
        assert np.array_equal(from_tile_major(out, 16), fw_reference(d))

    def test_trace_length_formula(self):
        for n, b in [(12, 4), (20, 5), (16, 16), (30, 8)]:
            m = -(-n // b)
            assert len(full_trace(m)) == m * (1 + 2 * (m - 1) + (m - 1) ** 2) == m**3

    def test_trace_record_invariants(self):
        m = 4
        for rec in full_trace(m):
            k = rec.k
            if rec.phase is TilePhase.PIVOT_FW:
                assert rec.target == (k, k)
                assert rec.sources == ((k, k),)
            elif rec.phase is TilePhase.PIVOT_ROW:
                assert rec.target[0] == k and rec.target[1] != k
                assert (k, k) in rec.sources
            elif rec.phase is TilePhase.PIVOT_COL:
                assert rec.target[1] == k and rec.target[0] != k
                assert (k, k) in rec.sources
            else:
                i, j = rec.target
                assert i != k and j != k
                assert rec.sources == ((i, k), (k, j))

    def test_round_order_rows_before_cols(self):
        recs = round_records(1, 3)
        phases = [r.phase for r in recs]
        first_row = phases.index(TilePhase.PIVOT_ROW)
        first_col = phases.index(TilePhase.PIVOT_COL)
        assert phases[0] is TilePhase.PIVOT_FW
        assert first_row < first_col

    @pytest.mark.parametrize("n", [40, 37])
    # Both pad to 40 rows at b=4 (m=10) and run in uint16, and the 36 rows
    # outside the pivot rows go in bands of chunk // 40 rows, chunk counted in
    # uint16 entries: 1 gives 1-row bands, 576 gives 14-row bands and 36 * 40
    # one band. At n = 40 one pass per rank costs more than sweeping every
    # row (fw._CALL > 4 * 36 * 40), so each round gathers its live rows or
    # sweeps bands. At density 0.05 the rounds run in fill order: at n = 40
    # rounds 0-7 gather their live rows, up to 17 of the 36, so at 576 some
    # take a 14-row band and a ragged one, and rounds 8-9 sweep; at n = 37,
    # whose round 0 holds the 3 padding vertices, every round gathers. At
    # density 0.5 the first 4 pivots' fill reaches n * m = 400 entries at
    # n = 40, so its rounds keep tile order and sweep contiguous bands,
    # ragged at k=8 (14 + 14 + 4 rows above the pivot) and on both sides at
    # k=4 (14 + 2 above, 14 + 6 below); at n = 37 the padding keeps the fill
    # under 400, and fill-order round 0 gathers its 14 live rows.
    @pytest.mark.parametrize("chunk", [1, 576, 36 * 40])
    def test_multi_chunk_wavefront(self, monkeypatch, spy, n, chunk):
        monkeypatch.setattr(fw, "_CHUNK_BYTES", 2 * chunk)
        sparse = {40: ["rows"] * 8 + ["bands"] * 2, 37: ["rows"] * 10}[n]
        dense = {40: ["bands"] * 10, 37: ["rows"] + ["bands"] * 9}[n]
        for density, paths in ((0.05, sparse), (0.5, dense)):
            d = build_distance_matrix(gen_synthetic(n, density, seed=22))
            spy.steps.clear()
            out = fw_blocked(to_tile_major(d, 4))
            assert out.shape == (10, 10, 4, 4)
            assert [taken(step) for step in spy.steps] == paths
            assert all(step.sliced for step in spy.steps)
            assert np.array_equal(from_tile_major(out, n), fw_reference(d))

    def test_blocked_idempotent_under_re_run(self):
        d = build_distance_matrix(gen_synthetic(20, 0.4, seed=21))
        t1 = fw_blocked(to_tile_major(d, 5))
        t2 = fw_blocked(t1)
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("width, weights", [
        (np.uint16, (1, 100)),
        (np.uint32, (100_000, 200_000)),
        (np.uint64, (2_000_000_000, 4_000_000_000)),
    ], ids=["uint16", "uint32", "uint64"])
    def test_input_not_mutated(self, widths, width, weights):
        d = build_distance_matrix(gen_synthetic(24, 0.3, weight_range=weights, seed=23))
        t = to_tile_major(d, 5)
        before = t.tobytes()
        fw_blocked(t)
        assert widths == [[width]]
        assert t.tobytes() == before


def arbitrary_matrix(rng, n, top):
    """n x n uint32 entries drawn from 0..top - 1, the diagonal included, about
    a third of them INF, and one entry set to top - 1 so the largest finite
    entry is known."""
    d = rng.integers(0, top, size=(n, n), dtype=np.uint64).astype(np.uint32)
    d[rng.random((n, n)) < 1 / 3] = INF
    d[rng.integers(n), rng.integers(n)] = top - 1
    return d


class TestFold:
    """fw_blocked has no pivot-column phase: its row bands relax the pivot
    columns C to C (x) (I (+) P). Every golden and property input has a zero
    diagonal; here the diagonal is drawn like any entry, and entries in both
    directions make every pivot tile of two or more vertices hold cycles, so
    closing a pivot tile can lower its diagonal. naive_blocked, which runs
    the four phases tile by tile, must agree element for element."""

    @pytest.mark.parametrize("n, b", [
        (7, 1), (7, 2), (7, 3), (7, 6), (7, 7),
        (10, 1), (10, 2), (10, 3), (10, 9), (10, 10),
    ])
    # limit = (2^31 - 2) // (padded n - 1) is the largest w whose paths all
    # stay below 2^31 - 1. At limit and limit + 1 uint32 is tried, as
    # w * padded.bit_length() < 2^31 - 1, and every draw here passes the
    # check: its longest distance plus w stays below 2^31 - 1. INF - 1 goes
    # straight to uint64.
    @pytest.mark.parametrize("largest", ["limit", "limit+1", "INF-1"])
    def test_matches_naive_blocked(self, n, b, largest, widths):
        padded = -(-n // b) * b
        limit = (2**31 - 2) // max(padded - 1, 1)
        top = {"limit": limit + 1, "limit+1": limit + 2, "INF-1": INF}[largest]
        rng = np.random.default_rng([n, b, top])
        for _ in range(4):
            t = to_tile_major(arbitrary_matrix(rng, n, top), b)
            widths.clear()
            assert np.array_equal(fw_blocked(t), naive_blocked(t))
            # widths[0] is fw_blocked's; naive_blocked's pivot tiles follow.
            assert widths[0] == [np.uint64 if largest == "INF-1" else np.uint32]


def kept_pivots(d):
    """fw_reference's pivots, restated: the vertices with an off-diagonal
    finite entry in both their column (in) and their row (out), in ascending
    in * out order, ties by index."""
    finite = d != INF
    np.fill_diagonal(finite, False)
    score = finite.sum(axis=0) * finite.sum(axis=1)
    return sorted(np.flatnonzero(score).tolist(), key=lambda k: score[k])


class TestLiveRows:
    """Both kernels skip the (row, pivot) pairs whose pivot entry sits at the
    working cap (2^15 - 1 in uint16, 2^31 - 1 in uint32, INF in uint64), and
    fw_reference the pivots that have no in- or no out-entry. At every
    window, step or round _relax sweeps contiguous bands, gathers the live
    rows, or makes one pass per rank over the live pairs, whichever costs
    least."""

    # Edge weights that run a 40-vertex graph at each width.
    WEIGHTS = {"uint16": (1, 100), "uint32": (40_000, 50_000),
               "uint64": (400_000_000, 500_000_000)}

    def sparse(self, n, width, seed):
        return build_distance_matrix(
            gen_synthetic(n, 0.08, weight_range=self.WEIGHTS[width], seed=seed))

    @pytest.mark.parametrize("width", WEIGHTS)
    @pytest.mark.parametrize("chunk", [65_536, 120], ids=["one-band", "3-row-bands"])
    def test_gathers_then_switches(self, monkeypatch, spy, widths, width, chunk):
        # chunk counts entries of the working width. At n = 40 the 33 to 35
        # kept pivots fill one window of 64, so fw_reference runs in windows
        # of 8: five, the first of which gather their live rows; the later,
        # denser ones sweep.
        monkeypatch.setattr(fw, "_CHUNK_BYTES", chunk * np.dtype(width).itemsize)
        monkeypatch.setattr(fw, "_WINDOW", 8)
        for seed in range(3):
            d = self.sparse(40, width, 40 + seed)
            spy.steps.clear()
            assert np.array_equal(fw_reference(d), scalar_fw(d))
            assert widths[-1] == [getattr(np, width)]
            assert len(windowed(spy.steps, d)) == 5
            paths = [taken(step) for step in spy.steps]
            assert paths[0] == "rows" and "bands" in paths
            t = to_tile_major(d, 4)
            want = naive_blocked(t)
            spy.steps.clear()
            assert np.array_equal(fw_blocked(t), want)
            paths = [taken(step) for step in spy.steps]
            assert len(paths) == 10 and paths[0] == "rows" and "bands" in paths

    def test_uint64_entries_past_the_narrow_cap_are_live(self, spy, widths):
        # Finite pivot entries in [2^31 - 1, INF - 1] make uint64 rows live:
        # 0 -> 1 -> 2 costs 2^31 - 1 + 5 and 3 -> 1 -> 2 costs 2^31 + 5, so a
        # uint64 kernel capped at 2^31 - 1 would leave both INF.
        d = path_graph(8, INF)
        d[0, 1], d[3, 1], d[1, 2], d[6, 1], d[5, 6] = 2**31 - 1, 2**31, 5, INF - 1, 7
        want = scalar_fw(d)
        assert (want[0, 2], want[3, 2]) == (2**31 + 4, 2**31 + 5)
        naive = {b: naive_blocked(to_tile_major(d, b)) for b in (1, 2, 3)}
        spy.steps.clear()
        assert np.array_equal(fw_reference(d), want)
        assert widths[-1] == [np.uint64]
        # Vertices 6 and 1 have in- and out-entries (6 -> 1 and 1 -> 2), of
        # in * out 1 and 3: one window, closed by step 1 alone, as 6 -> 1 is
        # its one inner entry.
        assert windowed(spy.steps, d) == [[1]]
        assert [step.pivots for step in spy.steps] == [[6, 1]]
        for b in (1, 2, 3):
            out = fw_blocked(to_tile_major(d, b))
            assert np.array_equal(out, naive[b])
            assert np.array_equal(from_tile_major(out, 8), want)
        assert "bands" not in [taken(step) for step in spy.steps]

    @pytest.mark.parametrize("width", WEIGHTS)
    @pytest.mark.parametrize("graph, n", [
        ("no-edges", 0), ("no-edges", 1), ("no-edges", 2), ("no-edges", 5),
        ("no-edges", 12), ("isolated", 12), ("isolated", 30),
    ])
    def test_sparse_graphs_gather_every_step(self, spy, widths, width, graph, n):
        d = path_graph(n, INF)
        # The diagonal sets the width: 0, or an entry past 2^15 - 1 or 2^31 - 1.
        np.fill_diagonal(d, {"uint16": 0, "uint32": 100_000, "uint64": 3_000_000_000}[width])
        if graph == "isolated":
            # A 3-cycle; every other vertex is isolated.
            d[[0, 1, 2], [1, 2, 0]] = 100
        assert np.array_equal(fw_reference(d), scalar_fw(d))
        assert widths == [[getattr(np, width) if n else np.uint16]]
        # Only the 3-cycle's vertices are pivots: one window, which each of
        # them closes, and finds no live row outside it, so it gathers none.
        pivots = [[0, 1, 2]] if graph == "isolated" else []
        assert windowed(spy.steps, d) == pivots
        assert [step.pivots for step in spy.steps] == pivots
        assert [taken(step) for step in spy.steps] == ["rows"] * len(pivots)
        assert spy.relaxed == 3 * 3 * len(pivots)
        for b in (1, 3):
            t = to_tile_major(d, b)
            want = naive_blocked(t)
            spy.steps.clear()
            assert np.array_equal(fw_blocked(t), want)
            assert len(spy.steps) == len(t)
            paths = [taken(step) for step in spy.steps]
            # At m = 1 the round's pivots are every row, so each path costs
            # 0 and the tie goes to bands, which sweeps no other row.
            assert (paths == ["bands"]) if len(t) == 1 else ("bands" not in paths)

    @pytest.mark.parametrize("diagonal", [0, 5, INF], ids=["zero", "positive", "INF"])
    def test_dead_pivots_are_skipped(self, spy, widths, diagonal):
        # The 3-cycle 0 -> 1 -> 2 -> 0 with in * out of 2, 4 and 2. Vertex 3
        # feeds it and has no in-entry, 4 drains it and has no out-entry, 5 is
        # isolated, and 6 -> 7 has neither: their steps cannot change a
        # distance, whatever the diagonal, so fw_reference runs none of them.
        d = path_graph(8, INF)
        np.fill_diagonal(d, diagonal)
        src, dst = [0, 1, 2, 3, 3, 2, 1, 6], [1, 2, 0, 0, 1, 4, 4, 7]
        d[src, dst] = [3, 4, 5, 1, 2, 6, 1, 2]
        want = scalar_fw(d)
        assert want[3, 4] == 3 and want[6, 7] == 2
        assert np.array_equal(fw_reference(d), want)
        assert widths == [[np.uint16]]
        assert kept_pivots(d) == [0, 2, 1]
        assert windowed(spy.steps, d) == [[0, 2, 1]]
        for b in (1, 3):
            t = to_tile_major(d, b)
            assert np.array_equal(fw_blocked(t), naive_blocked(t))

    def test_relaxed_row_count(self, spy):
        # fw_reference skips 76 of the 512 pivots. The other 436 run in 7
        # windows, 6 of 64 and one of 52. Their closing steps, 223 of the
        # 436, relax the window's rows: 171 * 64 + 52 * 52 = 13,648 (row,
        # step) pairs. The first 6 windows' _relax calls make a pass per rank
        # over their live pairs, the last gathers its 399 live rows: 24,541
        # pairs more. That is 38,189 of the dense 512^2 = 262,144, and 91,199
        # with the pivots one at a time in index order.
        d = build_distance_matrix(gen_synthetic(512, 0.005, seed=1))
        fw_reference(d)
        ran = windowed(spy.steps, d)
        assert [len(steps) for steps in ran] == [10, 7, 19, 24, 49, 62, 52]
        assert [taken(step) for step in spy.steps] == ["pairs"] * 6 + ["rows"]
        assert sum(step.relaxed for step in spy.steps) == 24_541
        assert spy.relaxed == 171 * 64 + 52 * 52 + 24_541 == 38_189
        # fw_blocked's 8 pivot-row passes step through the 230 live pivots
        # of 512, over 64 rows each: 14,720 (row, step) pairs, not
        # 8 * 64 * 64 = 32,768. In fill order rounds 0-6 make a pass per
        # rank, round 7 gathers its live rows (109,838 in tile order).
        spy.steps.clear()
        spy.relaxed = 0
        fw_blocked(to_tile_major(d, 64))
        assert [taken(step) for step in spy.steps] == ["pairs"] * 7 + ["rows"]
        assert sum(step.relaxed for step in spy.steps) == 27_684
        assert sum(len(step.ran) for step in spy.steps) == 230
        assert spy.relaxed == 230 * 64 + 27_684 == 42_404
        # At b = 512 (m = 1) the one round's pass steps through the 471 live
        # pivots of 512, in 37 calls, one per maximal run, over all 512 rows:
        # 241,152 (row, step) pairs, not the 262,144 of one dense closure.
        # Its _relax finds no row outside the pivots.
        spy.steps.clear()
        spy.relaxed = 0
        fw_blocked(to_tile_major(d, 512))
        [step] = spy.steps
        assert step.relaxed == 0 and len(step.ran) == 471
        assert 1 + np.count_nonzero(np.diff(step.ran) > 1) == 37
        assert spy.relaxed == 471 * 512 == 241_152

    def test_dense_input_sweeps_every_round(self, spy):
        d = build_distance_matrix(gen_synthetic(512, 0.5, seed=1))
        fw_blocked(to_tile_major(d, 64))
        assert [taken(step) for step in spy.steps] == ["bands"] * 8
        # fw_reference's 8 windows of 64 each run all 64 closing steps over
        # their rows, then sweep all 512 rows: each of the 448 rows outside
        # the window is live, and a gather costs a step more than the sweep.
        spy.steps.clear()
        spy.relaxed = 0
        fw_reference(d)
        assert windowed(spy.steps, d) == [list(step.pivots) for step in spy.steps]
        assert [taken(step) for step in spy.steps] == ["bands"] * 8
        assert [step.live for step in spy.steps] == [448] * 8
        assert spy.relaxed == 8 * (64 * 64 + 64 * 512) == 294_912

    @pytest.mark.parametrize("width", WEIGHTS)
    def test_steps_into_vertices_without_in_edges_relax_nothing(self, spy, widths, width):
        # Every vertex has edges to all of the first half; no vertex of the
        # second half has an in-edge. fw_reference runs only the first half's
        # steps, one window in index order (in * out is 39 * 19 for each),
        # each step closing it, and its _relax sweeps. In
        # fw_blocked's tile order, from round m / 2 on, no row is live; at
        # uint16 the fill order puts the second half's vertices, of score 0,
        # in the first m / 2 rounds, which find no row live.
        n = 40
        rng = np.random.default_rng(n)
        d = rng.integers(*self.WEIGHTS[width], size=(n, n), dtype=np.uint64)
        d = d.astype(np.uint32)
        d[:, n // 2:] = INF
        np.fill_diagonal(d, 0)
        assert np.array_equal(fw_reference(d), scalar_fw(d))
        assert widths[-1] == [getattr(np, width)]
        assert windowed(spy.steps, d) == [list(range(n // 2))]
        assert taken(spy.steps[0]) == "bands"
        for b in (1, 4, n):
            t = to_tile_major(d, b)
            want = naive_blocked(t)
            spy.steps.clear()
            assert np.array_equal(fw_blocked(t), want)
            half = len(t) // 2
            dead, swept = (0, half) if width == "uint16" else (half, 0)
            assert taken(spy.steps[swept]) == "bands"
            assert [step.relaxed for step in spy.steps[dead:dead + half]] == [0] * half
        # At b = n (m = 1) the one round's pass runs the first half's steps,
        # one call, and none of the second half's.
        assert [step.ran for step in spy.steps] == [list(range(n // 2))]

    @pytest.mark.parametrize("graph", ["sparse-256", "path", "cycle", "3-row-windows"])
    def test_batches_are_independent_and_cover_the_order(self, monkeypatch, spy, graph):
        # windowed checks that the windows, fw_reference's batches of pivots,
        # take every pivot of in * out > 0 once, in order, and the spy that
        # each window's closing steps are its live pivots. "3-row-windows"
        # runs _relax in bands of 3 rows.
        if graph == "3-row-windows":
            monkeypatch.setattr(fw, "_CHUNK_BYTES", 3 * 2 * 128)
        d = {"sparse-256": lambda: build_distance_matrix(gen_synthetic(256, 0.01, seed=2)),
             "path": lambda: path_graph(64, 7),
             "cycle": lambda: np.where(np.eye(48, k=-47, dtype=bool), 3, path_graph(48, 3)),
             "3-row-windows": lambda: build_distance_matrix(gen_synthetic(128, 0.02, seed=3)),
             }[graph]()
        assert np.array_equal(fw_reference(d), scipy_apsp(d))
        ran = windowed(spy.steps, d)
        # The path's first pivot, vertex 1, has its one in-entry from vertex
        # 0, which is not a pivot; the cycle's every vertex is.
        want = {"sparse-256": [15, 36, 61, 30], "path": [61], "cycle": [48],
                "3-row-windows": [43, 45]}[graph]
        assert [len(steps) for steps in ran] == want


def cycle(order, unit):
    """The cycle order[0] -> order[1] -> ... -> order[0], its i-th edge of
    weight (i + 1) * unit, and every other entry INF."""
    d = path_graph(len(order), INF)
    np.fill_diagonal(d, INF)
    d[order, np.roll(order, -1)] = (np.arange(len(order)) + 1) * unit
    return d


class TestPivotRowPass:
    """fw_blocked's pivot-row pass steps, per round, through the maximal runs
    of live pivots only: the t with an entry below the cap in column t of
    the pivot tile, from another pivot row, when the round starts. Each graph
    is one 8-cycle at b = 4, so every vertex has in * out = 1: the fill order
    is the index order, and at every width round 0 closes tile 0..3 and
    round 1 tile 4..7. The spy checks every round's run against the tile."""

    # The cycle's order: its edges inside tile 0..3 decide round 0's runs.
    # No edge inside it: the pass is skipped. 0 -> 1 and 2 -> 3: live pivots
    # 1 and 3, two runs. 0 -> 2 -> 1: pivot 1's only in-entry is from row 2,
    # so step 1 finds row 0 at INF; step 2 then brings row 0 the distance
    # to 1 through 2, and all of row 2, which step 1 already closed.
    CYCLES = {"skipped": [0, 4, 1, 5, 2, 6, 3, 7],
              "two-runs": [0, 1, 4, 2, 3, 5, 6, 7],
              "reached": [0, 2, 1, 4, 3, 5, 6, 7]}
    # Edge units that run an 8-vertex graph at each width (edges up to 8 units).
    UNITS = {"uint16": 1, "uint32": 2_000, "uint64": 100_000_000}

    @pytest.mark.parametrize("width", UNITS)
    @pytest.mark.parametrize("diagonal", ["zero", "positive", "INF"])
    @pytest.mark.parametrize("graph", CYCLES)
    def test_live_pivots_run(self, spy, widths, graph, width, diagonal):
        unit = self.UNITS[width]
        d = cycle(self.CYCLES[graph], unit)
        np.fill_diagonal(d, {"zero": 0, "positive": unit, "INF": INF}[diagonal])
        t = to_tile_major(d, 4)
        want, naive = scalar_fw(d), naive_blocked(t)
        widths.clear()
        spy.steps.clear()
        out = fw_blocked(t)
        assert widths == [[getattr(np, width)]]
        assert np.array_equal(out, naive)
        assert np.array_equal(from_tile_major(out, 8), want)
        # Round 1's tile holds the cycle's edges inside it, and each edge
        # from it back into it through tile 0..3: every column is live.
        first = {"skipped": [], "two-runs": [1, 3], "reached": [1, 2]}[graph]
        assert [step.ran for step in spy.steps] == [first, [4, 5, 6, 7]]


class TestPaths:
    """Each of _relax's paths, forced through fw._path at every call, gives
    the same distances: at every width, with a zero, a positive or an INF
    diagonal, for windows of index-array pivots and rounds of slices (at
    b = 1 steps of one pivot), against scalar_fw and naive_blocked (both
    computed unforced)."""

    @pytest.mark.parametrize("width", TestLiveRows.WEIGHTS)
    @pytest.mark.parametrize("diagonal", ["zero", "positive", "INF"])
    def test_forced_paths_agree(self, monkeypatch, spy, widths, width, diagonal):
        lo, hi = TestLiveRows.WEIGHTS[width]
        d = build_distance_matrix(gen_synthetic(24, 0.12, weight_range=(lo, hi), seed=24))
        # Vertex 0 becomes a source and vertex 9 a sink: fw_reference skips
        # their steps, which the forced paths must not need either.
        d[:, 0], d[0, 5:9] = INF, lo
        d[9, :], d[1:4, 9] = INF, hi
        np.fill_diagonal(d, {"zero": 0, "positive": lo, "INF": INF}[diagonal])
        assert 0 not in kept_pivots(d) and 9 not in kept_pivots(d)
        want = scalar_fw(d)
        naive = {b: naive_blocked(to_tile_major(d, b)) for b in (1, 3, 5, 24)}
        for path in ("bands", "rows", "pairs"):
            monkeypatch.setattr(fw, "_path", lambda n, h, live, pairs, ranks: path)
            widths.clear()
            spy.steps.clear()
            assert np.array_equal(fw_reference(d), want), path
            assert windowed(spy.steps, d)
            for b, tiles in naive.items():
                assert np.array_equal(fw_blocked(to_tile_major(d, b)), tiles), (path, b)
            assert widths == [[getattr(np, width)]] * 5
            assert all(step.relaxed == relaxed_by(step, path) for step in spy.steps)

    @pytest.mark.parametrize("path", ["bands", "rows", "pairs"])
    @pytest.mark.parametrize("pivots", [[6, 1, 4], slice(2, 5)], ids=["array", "slice"])
    def test_one_call_equals_its_steps(self, monkeypatch, spy, path, pivots):
        # Pivots 6, 1 and 4 with no entry below the cap between them, or rows
        # 2:5 closed over their own steps first: either way their rows are
        # closed, so one _relax, on any path, gives what single steps give,
        # each pivot against the rows as they then stand.
        rng = np.random.default_rng(7)
        d = np.minimum(arbitrary_matrix(rng, 9, 400), CAP16).astype(np.uint16)
        if isinstance(pivots, slice):
            fw._minplus(d[pivots], d[pivots][:, pivots], d[pivots])
        else:
            d[np.ix_(pivots, pivots)] = np.where(np.eye(3, dtype=bool),
                                                 d[pivots, pivots][:, None], CAP16)
        want = d.astype(np.int64)
        for k in np.arange(9)[pivots]:
            want = np.minimum(want, np.minimum(want[:, k, None] + want[k], CAP16))
        monkeypatch.setattr(fw, "_path", lambda n, h, live, pairs, ranks: path)
        fw._relax(d, pivots, d[pivots])
        assert np.array_equal(d, want)
        [step] = spy.steps
        assert step.relaxed == relaxed_by(step, path) and step.ranks > 1


class TestMemory:
    """fw_reference's windows and fw_blocked's fill-ordered rounds hold no
    second n x n array: on a sparse n = 1024 graph each kernel's traced peak
    stays within one band of _CHUNK_BYTES of its peak with pivots one at a
    time and rounds in tile order: 5,247,105 bytes for fw_reference,
    5,245,657 for fw_blocked at b = 128 and 6,326,776 at b = 1024 (the 4 MiB
    result plus bands and scratch; at m = 1 the pivot-row pass holds n x n
    scratch). fw_reference's windows of 64 peaked at 5,341,181 bytes."""

    PEAKS = {"reference": 5_247_105, "b=128": 5_245_657, "b=1024": 6_326_776}

    @pytest.mark.parametrize("kernel", PEAKS)
    def test_peak_within_one_band(self, kernel):
        d = build_distance_matrix(gen_synthetic(1024, 0.005, seed=1))
        if kernel == "reference":
            run = lambda: fw_reference(d)
        else:
            t = to_tile_major(d, int(kernel[2:]))
            run = lambda: fw_blocked(t)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAKS[kernel] + fw._CHUNK_BYTES


@st.composite
def chained(draw):
    """(d, b): a digraph over the chain 0 -> 1 -> ... -> n - 1, n in [5, 24],
    edge weights in [w // 2, w] and b in [1, n + 3]. w is drawn where uint16
    is tried, w * n.bit_length() < 2^15 - 1 <= (n - 1) * w, so the chain alone
    spans about (n - 1) * 3w / 4, either side of the cap."""
    n = draw(st.integers(5, 24))
    w = draw(st.integers(-(-CAP16 // (n - 1)), (CAP16 - 1) // n.bit_length()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.integers(w // 2, w + 1, size=(n, n)).astype(np.uint32)
    d[rng.random((n, n)) >= draw(st.floats(0.0, 0.3))] = INF
    d[np.arange(n - 1), np.arange(1, n)] = rng.integers(w // 2, w + 1, n - 1)
    np.fill_diagonal(d, 0)
    d[0, 1] = w
    return d, draw(st.integers(1, n + 3))


class TestCheck:
    """The after-the-fact check: a width below uint64 is kept only if the
    largest result below its cap, plus the largest finite entry w, is below
    the cap; otherwise the kernel reruns one width up."""

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chained())
    def test_distances_straddling_the_uint16_cap(self, widths, case):
        d, b = case
        n = len(d)
        want = scalar_fw(d)
        t = to_tile_major(d, b)
        naive = naive_blocked(t)
        widths.clear()
        assert np.array_equal(fw_reference(d), want)
        assert np.array_equal(fw_blocked(t), naive)
        w = int(d[0, 1])
        longest = int(np.max(want, where=want != INF, initial=0))
        assert widths[0] == [np.uint16] + ([] if longest + w < CAP16 else [np.uint32])
        # Padding to m * b vertices may lift w * (m * b).bit_length() to the cap.
        padded = len(t) * t.shape[2]
        assert widths[1] == (widths[0] if w * padded.bit_length() < CAP16 else [np.uint32])

    def test_long_path_widens(self, widths):
        # 399 edges of 100: the longest distance, 39,900, is past 2^15 - 1,
        # while w * n.bit_length() = 900 has uint16 tried first. The closed
        # form stands in for scalar_fw, which would take 400^3 steps.
        n = 400
        d = path_graph(n, 100)
        i, j = np.indices((n, n))
        want = np.where(j >= i, (j - i) * 100, INF).astype(np.uint32)
        t = to_tile_major(d, 40)
        naive = naive_blocked(t)
        widths.clear()
        assert np.array_equal(fw_reference(d), want)
        out = fw_blocked(t)
        assert np.array_equal(out, naive)
        assert np.array_equal(from_tile_major(out, n), want)
        assert widths == [[np.uint16, np.uint32]] * 2


class TestCapMapping:
    """_closure reads w from d's int32 view, where INF reads -1; an entry of
    2^31 or more reads below -1 and forces uint64. After a narrow
    pass it maps the cap to all ones, INF once widened, and keeps every
    entry below it: a distance at the uint16 or uint32 cap - 1 or at the cap
    is a plain distance in the wider width that keeps it."""

    CASES = {
        # One vertex: w * 1 < cap tries the narrow width, and the check fails.
        "uint16-cap-1": ([[CAP16 - 1]], [np.uint16, np.uint32]),
        "uint16-cap": ([[CAP16]], [np.uint32]),
        # 2100 * 15 + 1266 = 2^15 - 2: distances at the cap - 1 and the cap.
        "uint16-path-to-cap": (chain([2100] * 15 + [1266, 1]), [np.uint16, np.uint32]),
        "uint32-cap-1": ([[2**31 - 2]], [np.uint32, np.uint64]),
        "uint32-cap": ([[2**31 - 1]], [np.uint64]),
        # 400,000,000 * 5 + 147,483,646 = 2^31 - 2.
        "uint32-path-to-cap": (chain([400_000_000] * 5 + [147_483_646, 1]),
                               [np.uint32, np.uint64]),
        "all-INF": (np.full((5, 5), INF), [np.uint16]),
        "n=0": (np.zeros((0, 0)), [np.uint16]),
        "n=1": ([[0]], [np.uint16]),
        # 2^31 reads as -2^31 in int32 and forces uint64, as does INF - 1.
        "entry-2^31": ([[0, 2**31], [5, 0]], [np.uint64]),
        "entry-INF-1": ([[0, 7, INF - 1], [INF, 0, 3], [INF, INF, INF]], [np.uint64]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_against_scalar_fw(self, name, widths):
        d, tried = self.CASES[name]
        d = np.asarray(d, dtype=np.uint32)
        n = len(d)
        want = scalar_fw(d)
        if name.endswith("to-cap"):
            last = int(d[np.arange(n - 1), np.arange(1, n)].sum())
            assert want[0, n - 2] == last - 1 and want[0, n - 1] == last
        assert np.array_equal(fw_reference(d), want)
        t = to_tile_major(d, max(n, 1))
        assert np.array_equal(from_tile_major(fw_blocked(t), n), want)
        if n > 1:
            t = to_tile_major(d, 1)
            assert np.array_equal(from_tile_major(fw_blocked(t), n), want)
        assert widths == [tried] * (3 if n > 1 else 2)


def grid(side, unit):
    """The side x side grid digraph, an edge each way between neighbours, of
    weight unit times a draw from [1, 100]; the diagonal 0."""
    v = np.arange(side * side).reshape(side, side)
    src = np.concatenate([v[:, :-1].ravel(), v[:-1].ravel()])
    dst = np.concatenate([v[:, 1:].ravel(), v[1:].ravel()])
    rng = np.random.default_rng(side)
    d = path_graph(side * side, INF)
    d[src, dst] = rng.integers(1, 101, len(src)) * unit
    d[dst, src] = rng.integers(1, 101, len(src)) * unit
    return d


@cache
def grid_fw(diagonal):
    """scalar_fw of grid(12, 1) with the diagonal set to diagonal."""
    d = grid(12, 1)
    np.fill_diagonal(d, diagonal)
    return scalar_fw(d)


class TestWindow:
    """fw_reference closes its pivot order window by window at any window
    size: at fw._WINDOW = 1 plain single steps, at n + 1 one window of every
    pivot. Each result equals scalar_fw, and the spy checks each window's
    closing steps against its live pivots, at every width tried."""

    DIAGONALS = {"zero": 0, "positive": 5, "INF": INF}

    def windows(self, monkeypatch, spy, widths, d, want):
        for size in (1, 2, 3, 64, len(d) + 1):
            monkeypatch.setattr(fw, "_WINDOW", size)
            widths.clear()
            spy.steps.clear()
            assert np.array_equal(fw_reference(d), want), size
            windowed(spy.steps, d, len(widths[0]))

    @pytest.mark.parametrize("diagonal", DIAGONALS)
    @pytest.mark.parametrize("w, tried", [(100, [np.uint16]), (600, [np.uint16, np.uint32])],
                             ids=["w=100", "w=600"])
    def test_path(self, monkeypatch, spy, widths, w, tried, diagonal):
        # 65 pivots, 1 to 65: a window of 64 and one of 1. At w = 600 the
        # longest distance, 39,600, is past 2^15 - 1: the uint16 pass reruns.
        d = path_graph(67, w)
        np.fill_diagonal(d, self.DIAGONALS[diagonal])
        self.windows(monkeypatch, spy, widths, d, scalar_fw(d))
        assert widths == [tried]

    @pytest.mark.parametrize("diagonal", DIAGONALS)
    @pytest.mark.parametrize("unit, width", [(1, np.uint16), (1000, np.uint32)],
                             ids=["uint16", "uint32"])
    def test_grid(self, monkeypatch, spy, widths, unit, width, diagonal):
        # Every path of grid(12, 1000) is 1000 times its path in grid(12, 1),
        # so scalar_fw of the one is 1000 times that of the other.
        value = self.DIAGONALS[diagonal]
        d = grid(12, unit)
        np.fill_diagonal(d, min(value * unit, INF))
        want = grid_fw(value).astype(np.uint64)
        want = np.where(want == INF, INF, want * unit).astype(np.uint32)
        self.windows(monkeypatch, spy, widths, d, want)
        assert widths == [[width]]

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chained(), st.sampled_from(sorted(DIAGONALS)))
    def test_chained(self, monkeypatch, spy, widths, case, diagonal):
        d, _ = case
        # The positive diagonal is w, the chain's first edge.
        np.fill_diagonal(d, int(d[0, 1]) if diagonal == "positive" else self.DIAGONALS[diagonal])
        self.windows(monkeypatch, spy, widths, d, scalar_fw(d))
