"""Timeline construction: dependencies, serialization, totals, determinism."""

import dataclasses
import tracemalloc
from collections import defaultdict, deque

import numpy as np
import pytest

import reference_scheduler
from fwsim import (
    EventKind,
    build_distance_matrix,
    default_config,
    fw_reference,
    gen_synthetic,
    simulate,
    simulate_functional,
    tile_update_cost,
    timeline,
    utilization_report,
)
from fwsim import cli, scheduler
from fwsim.errors import ConfigError, GuardError


def round_events(k, m, b, cfg):
    """The events of pivot round k of an (m * b)-vertex run."""
    events = timeline(m * b, b, cfg)
    return events[events["k"] == k]


def events_by_kind(events):
    return {kind: events[events["kind"] == kind] for kind in EventKind}


class TestRoundStructure:
    def test_m1_single_pivot_event(self):
        cfg = default_config()
        events = round_events(0, 1, 64, cfg)
        assert len(events) == 1
        assert events["kind"][0] == EventKind.PIVOT_FW
        assert events["start"][0] == 0
        assert events["end"][0] == tile_update_cost(64, cfg).cycles
        # A pivot's counts are the tile_update_cost quote plus its TSV bits.
        assert events["tsv_bits"][0] == 0

    def test_m1_simulate_total_equals_pivot(self):
        cfg = default_config()
        r = simulate(64, 64, cfg)
        assert r.total_cycles == tile_update_cost(64, cfg).cycles

    def test_m2_event_census(self):
        cfg = default_config()
        events = round_events(0, 2, 8, cfg)
        kinds = events_by_kind(events)
        assert len(kinds[EventKind.PIVOT_FW]) == 1
        assert len(kinds[EventKind.ROW_COL_UPDATE]) == 2
        assert len(kinds[EventKind.REMAINING_UPDATE]) == 1
        # pivot fill + one result fill per phase-2 tile
        assert len(kinds[EventKind.BROADCAST]) == 3
        assert len(kinds[EventKind.CPE_REDUCE]) == 3

    def test_m2_phase2_tiles_start_together_on_distinct_groups(self):
        cfg = default_config()
        events = round_events(0, 2, 8, cfg)
        kinds = events_by_kind(events)
        p2 = kinds[EventKind.ROW_COL_UPDATE]
        assert p2["unit"][0] != p2["unit"][1]
        assert p2["start"][0] == p2["start"][1]

    def test_phase3_max_serialization_default_m16(self):
        # 225 wavefront tiles over 32 groups: the most loaded group queues 8.
        cfg = default_config()
        events = round_events(3, 16, 8, cfg)
        per_group = np.bincount(events_by_kind(events)[EventKind.REMAINING_UPDATE]["unit"])
        assert per_group.max() == 8
        assert per_group.sum() == 225

    def test_round_offsets_shift_uniformly(self):
        # A 1000-cycle bulk load delays every later event by exactly 1000.
        cfg = default_config()
        loaded = dataclasses.replace(
            cfg, pim=dataclasses.replace(cfg.pim, bulk_load_cycles=1000))
        base = timeline(32, 8, cfg)
        load, moved = np.split(timeline(32, 8, loaded), [1])
        assert (load["k"][0], load["start"][0], load["end"][0]) == (-1, 0, 1000)
        assert len(base) == len(moved)
        for field in ("kind", "k", "i", "j", "unit", "tsv_bits"):
            assert np.array_equal(moved[field], base[field]), field
        assert (moved["start"] - base["start"] == 1000).all()
        assert (moved["end"] - base["end"] == 1000).all()


class TestInvariants:
    def scan_exclusive(self, events):
        """Per resource (the TSV bus, a channel's reducer, a bank-group) and
        unit, sorted spans never overlap."""
        per_resource = defaultdict(list)
        for kind, unit, start, end in zip(*(events[f].tolist()
                                            for f in ("kind", "unit", "start", "end"))):
            resource = {EventKind.BROADCAST: "tsv", EventKind.CPE_REDUCE: "ch"}.get(kind, "bg")
            per_resource[resource, unit].append((start, end))
        for spans in per_resource.values():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1

    def test_resource_exclusivity(self):
        self.scan_exclusive(timeline(1024, 64, default_config()))  # m=16

    def test_resource_exclusivity_oversubscribed(self):
        cfg = dataclasses.replace(default_config(), channels=1)
        self.scan_exclusive(timeline(256, 16, cfg))

    def test_dependency_soundness(self):
        events = timeline(512, 64, default_config())  # m=8
        for k in range(8):
            kinds = events_by_kind(events[events["k"] == k])
            pivot_end = kinds[EventKind.PIVOT_FW]["end"][0]
            pivot_bcast = kinds[EventKind.BROADCAST][0]
            assert pivot_bcast["start"] >= pivot_end
            assert (kinds[EventKind.ROW_COL_UPDATE]["start"] >= pivot_bcast["end"]).all()
            wavefront = kinds[EventKind.REMAINING_UPDATE]
            if len(wavefront):
                sources_published = max(kinds[EventKind.ROW_COL_UPDATE]["end"].max(),
                                        kinds[EventKind.BROADCAST]["end"].max())
                assert (wavefront["start"] >= sources_published).all()

    def test_round_barriers(self):
        events = timeline(512, 64, default_config())
        for k in range(1, 8):
            assert (events["start"][events["k"] == k].min()
                    >= events["end"][events["k"] == k - 1].max())

    def test_total_is_max_event_end(self):
        r = simulate(512, 64, default_config())
        events = timeline(512, 64, default_config())
        assert r.total_cycles == events["end"].max()

    def test_aggregate_counts_equal_event_sum(self):
        # Each event counts its kind's quote plus its TSV bits.
        from fwsim.perf import OpCounts

        cfg = default_config()
        r = simulate(256, 32, cfg)
        events = timeline(256, 32, cfg)
        total = OpCounts(tsv_bits=int(events["tsv_bits"].sum()))
        for kind, quote in reference_scheduler.kind_quotes(32, cfg).items():
            total = total + quote.scaled(int((events["kind"] == kind).sum()))
        assert total == r.counts

    def test_work_conservation_small(self):
        cfg = default_config()
        for n, b in [(64, 16), (256, 64)]:
            r = simulate(n, b, cfg)
            m = n // b
            analytic = m * (1 + 2 * (m - 1) + (m - 1) ** 2) * b**3
            assert r.counts.minplus_ops == analytic == n**3

    def test_work_conservation_with_padding(self):
        r = simulate(100, 16, default_config())  # pads to 112, m=7
        assert r.counts.minplus_ops == 7 * (1 + 12 + 36) * 16**3

    def test_bpe_cycles_track_ops(self):
        cfg = default_config()
        r = simulate(128, 32, cfg)
        assert r.counts.bpe_cycles == r.counts.minplus_ops * 64

    def test_busy_bounded_by_total(self):
        r = simulate(1024, 64, default_config())
        assert all(0 <= busy <= r.total_cycles for busy in r.per_bank_group_busy)


class TestScalingProperties:
    def test_bpe_saturation_identical_results(self):
        cfg = default_config()
        a = simulate(1024, 256, dataclasses.replace(cfg, bpes_per_bank=16))
        b = simulate(1024, 256, dataclasses.replace(cfg, bpes_per_bank=32))
        assert a.total_cycles == b.total_cycles
        assert a.counts.bpe_cycles == b.counts.bpe_cycles

    def test_channel_monotonicity(self):
        cfg = default_config()
        totals = []
        for ch in (1, 2, 4, 8):
            c = dataclasses.replace(cfg, channels=ch)
            totals.append(simulate(128, 64, c).total_cycles)  # m=2, 2m <= 4
        assert totals == sorted(totals, reverse=True)

    def test_more_pes_never_slower(self):
        cfg = default_config()
        t = [
            simulate(512, 256, dataclasses.replace(cfg, bpes_per_bank=pe)).total_cycles
            for pe in (4, 8, 16)
        ]
        assert t == sorted(t, reverse=True)

    def test_grid_memory_follows_tiles_not_bank_groups(self):
        """m = 3 on one channel of 2^16 bank-groups: the folded grid is one
        lap of the 9 tiles, not of the channel's 2^16 bank-groups, so past the
        busy totals (an int64 array and its list, about 1 MiB) a simulate or
        timeline allocates little."""
        cfg = dataclasses.replace(default_config(), channels=1, bank_groups_per_channel=1 << 16)
        for run in (simulate, timeline):
            tracemalloc.start()
            try:
                run(3 * 4, 4, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * 2**20, run.__name__


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = default_config()
        a = simulate(512, 64, cfg)
        b = simulate(512, 64, cfg)
        assert a == b

    def test_functional_repeat_identical(self):
        cfg = default_config()
        d = build_distance_matrix(gen_synthetic(48, 0.4, seed=33))
        m1, r1 = simulate_functional(d, 16, cfg)
        m2, r2 = simulate_functional(d, 16, cfg)
        assert np.array_equal(m1, m2)
        assert r1 == r2


class TestWavefrontEnforcement:
    """The scheduler models any number of tiles per bank-group; the CLI's run
    and sweep refuse 2M > C*G unless --relax-wavefront is given."""

    def test_constraint_raised_by_default(self, capsys):
        argv = ["run", "--nodes", "8192", "--block-size", "256"]  # m=32 on 32 groups
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: parallelism constraint violated: the wavefront stages 2M = 64 "
            "pivot-row/column tiles but the stack has only C*G = 32 bank-groups\n")

    def test_relaxed_run_completes(self):
        r = simulate(8192, 256, default_config())
        assert r.counts.minplus_ops == 8192**3

    def test_other_config_errors_still_raised_when_relaxed(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            dataclasses.replace(default_config(), dq_bits=0)
        (tmp_path / "bad.json").write_text('{"dq_bits": 0}')
        assert cli.main(["run", "--nodes", "64", "--block-size", "16", "--relax-wavefront",
                         "--config", str(tmp_path / "bad.json")]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: dq_bits must be >= 1, got 0\n"


class TestFunctional:
    def test_matches_reference_and_timing(self):
        # At n = 256, b = 8, m = 32 > G / 2 = 16 stages more tiles than the
        # wavefront constraint allows; the scheduler models it all the same.
        cfg = default_config()
        for n, b in [(64, 16), (256, 8)]:
            d = build_distance_matrix(gen_synthetic(n, 0.5, seed=44))
            got, sim = simulate_functional(d, b, cfg)
            assert np.array_equal(got, fw_reference(d))
            assert sim == simulate(n, b, cfg)

    def test_single_tile(self):
        cfg = default_config()
        d = build_distance_matrix(gen_synthetic(20, 0.5, seed=45))
        got, _ = simulate_functional(d, 20, cfg)
        assert np.array_equal(got, fw_reference(d))

    def test_guard_refuses_large_matrices(self, monkeypatch):
        monkeypatch.setattr(scheduler, "FUNCTIONAL_GUARD", 8)
        cfg = default_config()
        d = np.zeros((10, 10), dtype=np.uint32)
        with pytest.raises(GuardError) as exc:
            simulate_functional(d, 4, cfg)
        assert "timing-only" in str(exc.value)

    def test_guard_counts_the_padding(self, monkeypatch):
        # 8 vertices pass a guard of 8 unpadded but pad to 9 at b = 3.
        monkeypatch.setattr(scheduler, "FUNCTIONAL_GUARD", 8)
        d = np.zeros((8, 8), dtype=np.uint32)
        with pytest.raises(GuardError):
            simulate_functional(d, 3, default_config())
        got, _ = simulate_functional(d, 4, default_config())
        assert np.array_equal(got, d)

    def test_unreachable_pairs_stay_inf(self):
        # BFS oracle: d[i][j] is INF exactly when j is unreachable from i.
        from fwsim import INF

        cfg = default_config()
        e = gen_synthetic(40, 0.04, seed=46)
        d = build_distance_matrix(e)
        got, _ = simulate_functional(d, 8, cfg)

        adj = defaultdict(list)
        for u, v, _w in e.edges:
            adj[int(u)].append(int(v))
        for src in range(40):
            seen = {src}
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
            for dst in range(40):
                assert (got[src, dst] == INF) == (dst not in seen)


class TestUtilization:
    def test_equal_busy_when_groups_divide_tiles(self):
        # m=16 on 32 groups: every group holds 8 tiles and every tile update
        # costs the same, so busy cycles match exactly.
        r = simulate(1024, 64, default_config())
        util = utilization_report(r)
        assert util["max"] == util["min"] > 0
        assert len(set(r.per_bank_group_busy)) == 1

    def test_m1_single_group_busy(self):
        r = simulate(64, 64, default_config())
        busy = r.per_bank_group_busy
        assert busy[0] > 0
        assert all(v == 0 for v in busy[1:])

    def test_fractions_in_unit_interval(self):
        r = simulate(320, 64, default_config())
        util = utilization_report(r)
        assert all(0.0 <= f <= 1.0 for f in util["per_bank_group"])
        assert 0.0 <= util["min"] <= util["mean"] <= util["max"] <= 1.0

    def test_reported_beyond_64_rounds(self):
        # Utilization comes from the busy counters, at any number of rounds.
        r = simulate(65 * 8, 8, default_config())
        assert r.tiles_per_row == 65
        util = utilization_report(r)
        assert 0.0 < util["min"] <= util["mean"] <= util["max"] <= 1.0


class TestBulkLoad:
    def test_bulk_load_reported_and_charged(self):
        cfg = default_config()
        pim = dataclasses.replace(cfg.pim, bulk_load_cycles=5000)
        with_load = simulate(128, 64, dataclasses.replace(cfg, pim=pim))
        without = simulate(128, 64, cfg)
        assert with_load.bulk_load_cycles == 5000
        assert with_load.total_cycles == without.total_cycles + 5000
        assert with_load.counts.tsv_bits > without.counts.tsv_bits
