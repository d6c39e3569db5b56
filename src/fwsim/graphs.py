"""Graph ingestion and dense distance-matrix layout.

Edge lists come from SNAP-style text files or a synthetic generator. Distance
matrices are dense uint32 numpy arrays with INF marking absent edges, and can
be converted between row-major and tile-major layouts (padding as needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError

INF = 0xFFFF_FFFF
"""Sentinel for "no path": the maximum representable 32-bit unsigned value."""

# Random draws per block of rows in gen_synthetic: 256 KiB of float64.
_DRAWS = 32_768


@dataclass(frozen=True, eq=False)
class EdgeList:
    """A weighted directed graph as a flat edge array.

    edges has shape (E, 3) with uint32 rows (src, dst, weight). Vertex ids are
    dense and 0-based; weights are strictly below INF; self-loops are never
    stored (self-distances are forced to 0 when the matrix is built).
    """

    num_vertices: int
    edges: np.ndarray

    def __post_init__(self):
        # Checked before the uint32 cast, which truncates 3.7 to 3 and wraps -5.
        e = np.asarray(self.edges).reshape(-1, 3)
        if self.num_vertices < 0:
            raise ConfigError("num_vertices must be non-negative")
        if len(e):
            if e.dtype.kind not in "ui" or int(e.min()) < 0:
                raise ConfigError(f"edges must be non-negative integers, got {e.dtype}")
            if int(e[:, :2].max()) >= self.num_vertices:
                raise ConfigError("edge endpoint out of range")
            if int(e[:, 2].max()) >= INF:
                raise ConfigError("edge weight must be below the INF sentinel")
            if np.any(e[:, 0] == e[:, 1]):
                raise ConfigError("self-loop edges are not retained")
        object.__setattr__(self, "edges", e.astype(np.uint32, copy=False))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, EdgeList):
            return NotImplemented
        return self.num_vertices == other.num_vertices and np.array_equal(
            self.edges, other.edges
        )


def parse_edge_list(text, directed: bool = True) -> EdgeList:
    """Parse whitespace-separated "u v [w]" records into an EdgeList.

    Lines starting with '#' and blank lines are skipped. A missing weight
    defaults to 1. Vertex ids are re-indexed densely in first-seen order.
    Duplicate edges keep the minimum weight; self-loops are dropped.
    Undirected mode emits both directions of every record.
    """
    lines = text.splitlines() if isinstance(text, str) else text

    index: dict[int, int] = {}
    best: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(f"expected 'u v [w]', got {line!r}", line_no)
        try:
            u_raw, v_raw = int(fields[0]), int(fields[1])
            w = int(fields[2]) if len(fields) >= 3 else 1
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", line_no) from None
        if u_raw < 0 or v_raw < 0:
            raise ParseError(f"negative vertex id in {line!r}", line_no)
        if w < 0 or w >= INF:
            raise ParseError(
                f"weight {w} outside the representable range [0, {INF})", line_no
            )
        u, v = index.setdefault(u_raw, len(index)), index.setdefault(v_raw, len(index))
        for key in [(u, v)] if directed else [(u, v), (v, u)]:
            if u != v and w < best.get(key, INF):
                best[key] = w

    edges = np.array(
        [(u, v, w) for (u, v), w in best.items()], dtype=np.uint32
    ).reshape(-1, 3)
    return EdgeList(num_vertices=len(index), edges=edges)


def load_edge_list(path, directed: bool = True) -> EdgeList:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_edge_list(fh, directed=directed)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def gen_synthetic(n: int, density: float, weight_range=(1, 100), seed: int = 0) -> EdgeList:
    """Generate a random digraph: each ordered pair (u, v), u != v, is included
    independently with probability `density`, weight uniform in [lo, hi].

    Deterministic for a fixed seed (numpy PCG64 stream).
    """
    lo, hi = weight_range
    if not (0.0 < density <= 1.0):
        raise ConfigError(f"density must be in (0, 1], got {density}")
    if not (1 <= lo <= hi < INF):
        raise ConfigError(f"weight range must satisfy 1 <= lo <= hi < INF, got {weight_range}")
    if n < 0:
        raise ConfigError("n must be non-negative")

    # The n x n mask, then the n x n int64 weights, drawn in blocks of rows:
    # PCG64's random and integers streams split at any block boundary, so
    # this is the stream of the two whole-matrix draws without holding them.
    rng = np.random.default_rng(seed)
    rows = max(1, _DRAWS // max(n, 1))
    blocks = [(r, min(r + rows, n)) for r in range(0, n, rows)]
    cells = []
    for a, z in blocks:
        src, dst = np.nonzero(rng.random((z - a, n)) < density)
        src += a
        keep = src != dst
        cells.append((src[keep], dst[keep]))
    edges = [np.empty((0, 3), np.int64)]
    for (a, z), (src, dst) in zip(blocks, cells):
        weights = rng.integers(lo, hi + 1, size=(z - a, n), dtype=np.int64)
        edges.append(np.column_stack([src, dst, weights[src - a, dst]]))
    return EdgeList(num_vertices=n, edges=np.concatenate(edges).astype(np.uint32))


def build_distance_matrix(e: EdgeList) -> np.ndarray:
    """Dense n x n uint32 matrix: edge weights, 0 diagonal, INF elsewhere."""
    n = e.num_vertices
    d = np.full((n, n), INF, dtype=np.uint32)
    np.fill_diagonal(d, 0)
    np.minimum.at(d, (e.edges[:, 0], e.edges[:, 1]), e.edges[:, 2])
    return d


def _tile_grid(tiles: np.ndarray) -> tuple[int, int]:
    """(m, b) of an (m, m, b, b) tile-major array; ConfigError for any other."""
    shape = tiles.shape
    if len(shape) != 4 or shape != (shape[0], shape[0], shape[3], shape[3]):
        raise ConfigError(f"tiles must have shape (m, m, b, b), got {shape}")
    return shape[0], shape[3]


def to_tile_major(d: np.ndarray, block_size: int) -> np.ndarray:
    """Re-layout a square matrix into an (m, m, b, b) array of b x b tiles,
    padding n up to m * b with path-neutral rows/columns (INF off-diagonal,
    0 on-diagonal). The tiles view a padded row-major copy of d, not d itself."""
    if block_size < 1:
        raise ConfigError("block size must be >= 1")
    n0 = d.shape[0]
    if d.shape != (n0, n0) or d.dtype != np.uint32:
        raise ConfigError(f"distance matrix must be square uint32, got {d.shape} {d.dtype}")
    m = max(1, -(-n0 // block_size))
    n = m * block_size
    padded = np.full((n, n), INF, dtype=np.uint32)
    np.fill_diagonal(padded, 0)
    padded[:n0, :n0] = d
    return padded.reshape(m, block_size, m, block_size).swapaxes(1, 2)


def from_tile_major(tiles: np.ndarray, original_n: int) -> np.ndarray:
    """Exact inverse of to_tile_major restricted to the original n x n region."""
    m, b = _tile_grid(tiles)
    if not 0 <= original_n <= m * b:
        raise ConfigError(f"original_n {original_n} is outside the tiled dimension [0, {m * b}]")
    flat = tiles.swapaxes(1, 2).reshape(m * b, m * b)
    return flat[:original_n, :original_n].copy()
