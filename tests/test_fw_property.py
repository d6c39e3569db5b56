"""Property test: fw_blocked == fw_reference == scipy's floyd_warshall.

fw_reference and fw_blocked run on the same min-plus kernel, so scipy is the
independent oracle. Saturating (min, +) yields min(true distance, INF), so
scipy's float result has its non-finite entries mapped to INF and is clamped
at INF before the element-for-element comparison.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall

from fwsim import INF, from_tile_major, fw_blocked, fw_reference, to_tile_major

# (2^15 // 48, 2^15 // 32) and (2^31 // 48, 2^31 // 32) put (n - 1) * w, the
# longest a path can be, either side of the uint16 or uint32 cap for n - 1 in
# [32, 48), so draws of n <= 40 have distances on both sides: the width is
# tried while w * n.bit_length() is below its cap and kept only if its result
# passes the check.
WEIGHT_RANGES = ((1, 10), (1, 1000), (2**15 // 48, 2**15 // 32),
                 (2**31 // 48, 2**31 // 32), (2**31, INF - 1), (INF - 100, INF - 1))


@st.composite
def graphs(draw):
    """(distance matrix, block size): n in [1, 40], b in [1, n + 3]."""
    n = draw(st.integers(1, 40))
    b = draw(st.integers(1, n + 3))
    density = draw(st.floats(0.0, 1.0))
    lo, hi = draw(st.sampled_from(WEIGHT_RANGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.integers(lo, hi + 1, size=(n, n), dtype=np.int64)
    d[rng.random((n, n)) >= density] = INF
    np.fill_diagonal(d, 0)
    return d.astype(np.uint32), b


def scipy_closure(d):
    """scipy's distances, zero weights kept as edges (a dense matrix would
    read each zero as a missing edge), with each diagonal entry the shortest
    closed walk through its vertex, min over j of d[i, j] + dist(j, i), as
    Floyd-Warshall leaves it; 0 where the diagonal is 0."""
    f = d.astype(np.float64)
    f[d == INF] = np.inf
    dist = floyd_warshall(csgraph_from_dense(f, null_value=np.inf), directed=True)
    np.fill_diagonal(dist, np.min(f + dist.T, axis=1))
    dist[~np.isfinite(dist)] = INF
    return np.minimum(dist, INF).astype(np.uint32)


# 0 -> 1 weighs 0, so 0 reaches 2 through 1 at 7.
ZERO_EDGE = np.array([[0, 0, INF], [INF, 0, 7], [5, INF, 0]], dtype=np.uint32)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graphs())
@example((ZERO_EDGE, 2))
def test_blocked_equals_reference_equals_scipy(case):
    d, b = case
    n = d.shape[0]
    ref = fw_reference(d)
    assert np.array_equal(from_tile_major(fw_blocked(to_tile_major(d, b)), n), ref)
    assert np.array_equal(ref, scipy_closure(d))


# A 3-cycle of 16,000 per edge with an INF diagonal: each vertex's distance to
# itself is the 48,000 cycle, which read INF when a uint16 pass was kept
# unchecked.
CYCLE = np.array([[INF, 16_000, INF], [INF, INF, 16_000], [16_000, INF, INF]],
                 dtype=np.uint32)


@st.composite
def padded_graphs(draw):
    """(distance matrix, block size) that fw_blocked pads, n % b != 0, with
    n in [3, 48]; zero weights in one range and the uint16, uint32 and uint64
    widths in the others; and maybe CYCLE's edges on 3 of the vertices, their
    diagonal INF."""
    n = draw(st.integers(3, 48))
    b = draw(st.integers(2, n - 1).filter(lambda b: n % b))
    density = draw(st.floats(0.0, 0.4))
    lo, hi = draw(st.sampled_from(((0, 3),) + WEIGHT_RANGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.integers(lo, hi + 1, size=(n, n), dtype=np.int64)
    d[rng.random((n, n)) >= density] = INF
    np.fill_diagonal(d, 0)
    if draw(st.booleans()):
        cycle = rng.choice(n, 3, replace=False)
        d[np.ix_(cycle, cycle)] = CYCLE
    return d.astype(np.uint32), b


@settings(max_examples=150, derandomize=True, deadline=None)
@given(padded_graphs())
@example((CYCLE, 2))
def test_fill_orders_agree_with_scipy(case):
    """fw_reference's windows and fw_blocked's fill-ordered rounds against
    scipy, element for element, INF included."""
    d, b = case
    n = d.shape[0]
    ref = fw_reference(d)
    assert np.array_equal(ref, scipy_closure(d))
    assert np.array_equal(from_tile_major(fw_blocked(to_tile_major(d, b)), n), ref)
