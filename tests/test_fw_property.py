"""Property test: fw_blocked == fw_reference == scipy's floyd_warshall.

fw_reference and fw_blocked run on the same min-plus kernel, so scipy is the
independent oracle. Saturating (min, +) yields min(true distance, INF), so
scipy's float result has its non-finite entries mapped to INF and is clamped
at INF before the element-for-element comparison.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import floyd_warshall

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


def scipy_fw(d):
    f = d.astype(np.float64)
    f[d == INF] = np.inf
    dist = floyd_warshall(f, directed=True)
    dist[~np.isfinite(dist)] = INF
    return np.minimum(dist, INF).astype(np.uint32)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graphs())
def test_blocked_equals_reference_equals_scipy(case):
    d, b = case
    n = d.shape[0]
    ref = fw_reference(d)
    assert np.array_equal(from_tile_major(fw_blocked(to_tile_major(d, b)), n), ref)
    assert np.array_equal(ref, scipy_fw(d))
