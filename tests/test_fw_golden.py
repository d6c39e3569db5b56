"""fw_reference, fw_blocked and the min-plus tile kernel against a golden
captured from the functional kernels before they were folded onto one
min-plus kernel.

fw_golden.json holds, per case, one sha256 over the uint32 bytes of four
outputs in turn: fw_reference on a synthetic graph, fw_blocked on its
tile-major layout (read back with from_tile_major), and test_fw's
tile_minplus_update (fw._minplus on uint64 copies, read back as uint32) on
three random b x b tiles, once unaliased (a, p, c) and once aliased
(a, p, a). Tile values reach 2**32 - 1 (INF) and, with the large weight
range, their sums overflow 32 bits.

Regenerate (only from a commit whose outputs are trusted) with
    PYTHONPATH=src python tests/test_fw_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from fwsim import (
    INF,
    build_distance_matrix,
    from_tile_major,
    fw_blocked,
    fw_reference,
    gen_synthetic,
    to_tile_major,
)
from test_fw import tile_minplus_update

GOLDEN_PATH = Path(__file__).with_name("fw_golden.json")
NODES = (1, 2, 7, 16, 33, 64, 100, 130)
BLOCKS = (1, 3, 8, 16, 64)
DENSITIES = (0.02, 0.3, 1.0)
WEIGHTS = ((1, 100), (2_000_000_000, 4_000_000_000))


def cases():
    seed = 0
    for n in NODES:
        for b in BLOCKS:
            for density in DENSITIES:
                for lo, hi in WEIGHTS:
                    seed += 1
                    yield f"n{n}/b{b}/d{density}/w{lo}-{hi}", n, b, density, (lo, hi), seed


def operands(b, density, weights, seed):
    """Three b x b uint32 tiles: weights in range, INF with probability 1 - density."""
    rng = np.random.default_rng(seed)
    lo, hi = weights
    vals = rng.integers(lo, hi + 1, size=(3, b, b), dtype=np.int64)
    vals[rng.random((3, b, b)) >= density] = INF
    return vals.astype(np.uint32)


def case_digest(n, b, density, weights, seed):
    d = build_distance_matrix(gen_synthetic(n, density, weight_range=weights, seed=seed))
    a, p, c = operands(b, density, weights, seed)
    h = hashlib.sha256()
    for out in (
        fw_reference(d),
        from_tile_major(fw_blocked(to_tile_major(d, b)), n),
        tile_minplus_update(a, p, c),
        tile_minplus_update(a, p, a),
    ):
        h.update(np.ascontiguousarray(out, dtype=np.uint32).tobytes())
    return h.hexdigest()


def capture():
    return {key: case_digest(*args) for key, *args in cases()}


def test_functional_kernels_reproduce_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = capture()
    assert got.keys() == golden.keys()
    for key, expected in golden.items():
        assert got[key] == expected, key


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=0, sort_keys=True) + "\n")
