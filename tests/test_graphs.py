"""Edge-list parsing, synthetic generation, matrix build, and tiling."""

import hashlib
import io
import random

import numpy as np
import pytest

from fwsim import (
    INF,
    build_distance_matrix,
    from_tile_major,
    fw_blocked,
    fw_reference,
    gen_synthetic,
    parse_edge_list,
    to_tile_major,
)
from fwsim import graphs
from fwsim.errors import ConfigError, ParseError


def edges_as_set(e):
    return {tuple(map(int, row)) for row in e.edges}


def u64(rows):
    return np.array(rows, dtype=np.uint64)


def snap_text(seed=24, records=600):
    """A seeded SNAP-style edge list over 80 sparse raw ids: '#' comments,
    blank lines, tab and space separators, missing weights, duplicates (half
    of them reversed) and self-loops."""
    rng = random.Random(seed)
    raw_ids = rng.sample(range(10**7), 80)
    lines = ["# Directed graph: example.txt", "# FromNodeId\tToNodeId\tWeight"]
    records_so_far = []
    for i in range(records):
        draw = rng.random()
        if draw < 0.2 and records_so_far:
            u, v = rng.choice(records_so_far)
            if rng.random() < 0.5:
                u, v = v, u
        elif draw < 0.25:
            u = v = rng.choice(raw_ids)
        else:
            u, v = rng.sample(raw_ids, 2)
        records_so_far.append((u, v))
        fields = [str(u), str(v)]
        if rng.random() < 0.7:
            fields.append(str(rng.randint(0, 60)))
        sep = rng.choice(["\t", " ", "  "])
        lines.append(rng.choice(["", " "]) + sep.join(fields) + rng.choice(["", " ", "\t"]))
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "   ", f"# records from {i}"]))
    return "\n".join(lines) + "\n"


class TestParser:
    def test_basic_directed(self):
        e = parse_edge_list("0 1\n1 2 5\n", directed=True)
        assert e.num_vertices == 3
        assert edges_as_set(e) == {(0, 1, 1), (1, 2, 5)}

    def test_comment_only_is_empty(self):
        e = parse_edge_list("# comment\n")
        assert e.num_vertices == 0
        assert e.num_edges == 0

    def test_duplicate_keeps_min(self):
        e = parse_edge_list("0 1 3\n0 1 2\n")
        assert edges_as_set(e) == {(0, 1, 2)}

    def test_undirected_emits_both_directions(self):
        e = parse_edge_list("0 1 4\n", directed=False)
        assert edges_as_set(e) == {(0, 1, 4), (1, 0, 4)}

    def test_undirected_duplicate_min_across_directions(self):
        e = parse_edge_list("0 1 4\n1 0 2\n", directed=False)
        assert edges_as_set(e) == {(0, 1, 2), (1, 0, 2)}

    def test_dense_reindex_first_seen_order(self):
        e = parse_edge_list("10 50\n50 7\n")
        # 10 -> 0, 50 -> 1, 7 -> 2
        assert e.num_vertices == 3
        assert edges_as_set(e) == {(0, 1, 1), (1, 2, 1)}

    def test_self_loops_dropped(self):
        e = parse_edge_list("3 3 9\n3 4 2\n")
        assert edges_as_set(e) == {(0, 1, 2)}

    def test_blank_lines_and_whitespace(self):
        e = parse_edge_list("\n  0   1   7 \n\n# c\n")
        assert edges_as_set(e) == {(0, 1, 7)}

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\nbogus\n")
        assert exc.value.line_no == 2
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\n0 x 3\n")
        assert exc.value.line_no == 2

    def test_single_field_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("7\n")
        assert exc.value.line_no == 1

    def test_weight_at_or_above_inf_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list(f"0 1 {INF}\n")
        with pytest.raises(ParseError):
            parse_edge_list(f"0 1 {INF + 5}\n")

    def test_negative_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1 -3\n")
        with pytest.raises(ParseError):
            parse_edge_list("-1 2\n")

    def test_accepts_file_like_input(self):
        e = parse_edge_list(io.StringIO("0 1 2\n"))
        assert edges_as_set(e) == {(0, 1, 2)}

    def test_determinism_identical_bytes(self):
        text = "# header\n3 9 4\n9 12\n3 12 8\n"
        assert parse_edge_list(text) == parse_edge_list(text)

    @pytest.mark.parametrize("directed, num_vertices, num_edges, sha256", [
        (True, 80, 469, "aa5c91ed725807631ba5370b9e22bb0600ba45bc4fcc1338df787538404e82c0"),
        (False, 80, 816, "4d05c15cbc1a53f356ab63b974549e4619bc6420bc656fc6c7b62f04ab3a7463"),
    ], ids=["directed", "undirected"])
    def test_ingest_golden(self, tmp_path, directed, num_vertices, num_edges, sha256):
        """The vertex count, the edges and their order, pinned for a mixed
        SNAP-style file, read as text and from a file."""
        path = tmp_path / "edges.txt"
        path.write_text(snap_text())
        e = graphs.load_edge_list(path, directed=directed)
        assert e == parse_edge_list(snap_text(), directed=directed)
        assert e.edges.dtype == np.uint32
        assert (e.num_vertices, e.num_edges) == (num_vertices, num_edges)
        digest = hashlib.sha256(np.int64(e.num_vertices).tobytes() + e.edges.tobytes())
        assert digest.hexdigest() == sha256


class TestBuildMatrix:
    def test_single_edge(self):
        e = parse_edge_list("0 1 2\n")
        d = build_distance_matrix(e)
        assert d.tolist() == [[0, 2], [INF, 0]]

    def test_empty_graph_single_vertex(self):
        e = parse_edge_list("5 5 0\n")  # self-loop dropped, one vertex seen
        d = build_distance_matrix(e)
        assert d.tolist() == [[0]]

    def test_both_directions(self):
        e = parse_edge_list("0 1 2\n1 0 7\n")
        d = build_distance_matrix(e)
        assert d.tolist() == [[0, 2], [7, 0]]

    def test_dtype_and_diagonal(self):
        d = build_distance_matrix(gen_synthetic(9, 0.5, seed=3))
        assert d.dtype == np.uint32
        assert (np.diag(d) == 0).all()

    @pytest.mark.parametrize("num_vertices, edges", [
        (-1, u64([])),
        (3, u64([(0, 3, 1)])),
        (3, u64([(0, 1, INF)])),
        (3, u64([(1, 1, 4)])),
        (3, np.array([(0, 1, 3.7)])),
        (3, np.array([(0.9, 1, 2)])),
        (3, np.array([(0, 1, -5)])),
        (3, [(0, 1, -1)]),
        (3, u64([(0, 1, 2**32)])),
        (3, u64([(2**32 + 1, 0, 2)])),
        (3, np.array([(False, True, True)])),
    ], ids=["negative-vertices", "endpoint-out-of-range", "weight-at-inf", "self-loop",
            "float-weight", "float-endpoint", "negative-weight", "negative-weight-list",
            "weight-2^32", "endpoint-2^32+1", "bool"])
    def test_edge_list_refuses_bad_input(self, num_vertices, edges):
        """Checked before the cast to uint32, which would keep 3.7 as 3, read
        0.9 as vertex 0, wrap -5 below INF and 2^32 to 0, and raise a bare
        OverflowError for a list's -1."""
        with pytest.raises(ConfigError):
            graphs.EdgeList(num_vertices, edges)


class TestGenSynthetic:
    def test_full_density_complete_digraph(self):
        e = gen_synthetic(4, 1.0, seed=123)
        assert e.num_edges == 12

    def test_determinism(self):
        a = gen_synthetic(100, 0.5, seed=42)
        b = gen_synthetic(100, 0.5, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        assert gen_synthetic(50, 0.5, seed=1) != gen_synthetic(50, 0.5, seed=2)

    def test_edge_count_within_four_sigma(self):
        e = gen_synthetic(100, 0.5, seed=42)
        mean = 9900 * 0.5
        sigma = (9900 * 0.25) ** 0.5
        assert abs(e.num_edges - mean) <= 4 * sigma

    def test_weights_within_range(self):
        e = gen_synthetic(40, 0.8, weight_range=(5, 9), seed=0)
        w = e.edges[:, 2]
        assert w.min() >= 5 and w.max() <= 9

    @staticmethod
    def whole_matrix_draw(n, density, weight_range, seed):
        """gen_synthetic as one n x n mask draw and one n x n weight draw."""
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        np.fill_diagonal(mask, False)
        lo, hi = weight_range
        weights = rng.integers(lo, hi + 1, size=(n, n), dtype=np.int64).astype(np.uint32)
        src, dst = np.nonzero(mask)
        return np.column_stack([src, dst, weights[mask]]).astype(np.uint32)

    # Blocks take draws // n rows: 1 row at n = 37 (37 blocks); 2 rows at
    # n = 37, the last block a single ragged row, and at n = 50; one block at
    # n = 1 and 2, none at n = 0; and by default 109 rows at n = 300, the
    # last block of 82.
    @pytest.mark.parametrize("n, draws", [
        (0, 1), (1, 1), (2, 4), (37, 1), (37, 74), (50, 100), (300, None),
    ])
    @pytest.mark.parametrize("density, weight_range", [
        (1.0, (1, 100)), (0.3, (2**31, INF - 1)), (0.02, (5, 5)),
    ])
    def test_blocks_draw_the_whole_matrix_stream(self, monkeypatch, n, draws,
                                                 density, weight_range):
        if draws is not None:
            monkeypatch.setattr(graphs, "_DRAWS", draws)
        for seed in (0, 7):
            e = gen_synthetic(n, density, weight_range=weight_range, seed=seed)
            want = self.whole_matrix_draw(n, density, weight_range, seed)
            assert e.edges.dtype == np.uint32
            assert np.array_equal(e.edges, want)
            if density == 1.0:
                assert e.num_edges == n * (n - 1)

    def test_invalid_density(self):
        with pytest.raises(ConfigError):
            gen_synthetic(10, 0.0, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(10, 1.5, seed=0)

    def test_invalid_weight_range(self):
        with pytest.raises(ConfigError):
            gen_synthetic(10, 0.5, weight_range=(0, 5), seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(10, 0.5, weight_range=(9, 5), seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(10, 0.5, weight_range=(1, INF), seed=0)


class TestTiling:
    def test_layout_definition(self):
        d = build_distance_matrix(gen_synthetic(4, 1.0, seed=5))
        t = to_tile_major(d, 2)
        assert t.shape == (2, 2, 2, 2)
        assert t[0, 1][0, 0] == d[0, 2]
        assert t[1, 0][1, 1] == d[3, 1]

    def test_padding_rule(self):
        d = build_distance_matrix(gen_synthetic(5, 0.7, seed=6))
        t = to_tile_major(d, 4)
        assert t.shape == (2, 2, 4, 4)
        flat = t.swapaxes(1, 2).reshape(8, 8)
        assert flat[6, 6] == 0
        assert flat[6, 7] == INF
        assert flat[7, 2] == INF

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 8, 17, 33):
            for b in (1, 2, 3, 4, 8, n):
                d = rng.integers(0, 2**32, size=(n, n), dtype=np.uint32)
                np.fill_diagonal(d, 0)
                d[d == INF] = 0
                t = to_tile_major(d, b)
                assert np.array_equal(from_tile_major(t, n), d)

    @pytest.mark.parametrize("n, b", [(8, 4), (5, 4)], ids=["whole", "padded"])
    def test_tiles_do_not_alias_input(self, n, b):
        d = build_distance_matrix(gen_synthetic(n, 0.5, seed=8))
        before = d.copy()
        to_tile_major(d, b)[...] = 7
        assert np.array_equal(d, before)

    def test_from_tile_major_dimension_error(self):
        t = to_tile_major(np.zeros((4, 4), dtype=np.uint32), 2)
        for original_n in (5, -1):
            with pytest.raises(ConfigError):
                from_tile_major(t, original_n)
        # A (2, 4, 4, 2) array holds 8 x 8 entries, as (2, 2, 4, 4) tiles do,
        # and a 2-D one could pass for the padded matrix: both are refused.
        for bad in (np.zeros((2, 4, 4, 2), np.uint32), np.zeros((8, 8), np.uint32)):
            with pytest.raises(ConfigError):
                from_tile_major(bad, 8)
            with pytest.raises(ConfigError):
                fw_blocked(bad)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint64])
    def test_refuses_all_but_uint32(self, dtype):
        d = np.array([[0, -1], [5, 0]]).astype(dtype)
        with pytest.raises(ConfigError):
            to_tile_major(d, 1)
        with pytest.raises(ConfigError):
            fw_blocked(d.reshape(2, 1, 2, 1).swapaxes(1, 2))

    def test_block_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            to_tile_major(np.zeros((2, 2), dtype=np.uint32), 0)

    def test_padding_invariance_under_fw(self):
        # Reference FW on the padded matrix, restricted to the original
        # region, must equal reference FW on the unpadded matrix.
        for seed, n, b in [(0, 9, 4), (1, 30, 8), (2, 64, 3), (3, 17, 8)]:
            d = build_distance_matrix(gen_synthetic(n, 0.3, seed=seed))
            t = to_tile_major(d, b)
            padded = t.swapaxes(1, 2).reshape(len(t) * b, len(t) * b)
            got = fw_reference(padded)[:n, :n]
            assert np.array_equal(got, fw_reference(d))
