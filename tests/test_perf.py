"""Cost-model unit tests: pass counts, cycle formulas, energy accounting."""

import dataclasses

import pytest

from fwsim import (
    OpCounts,
    bpe_minplus_cycles,
    cpe_reduction_cost,
    default_config,
    energy_of,
    tile_row_pass_cost,
    tile_update_cost,
    timeline,
)
from fwsim.perf import row_pass_count
from reference_scheduler import broadcast_cost


def pivot_cycles(b, cfg):
    """Cycles the scheduler charges the pivot tile's in-tile FW (m = 1)."""
    (pivot,) = timeline(b, b, cfg)
    return int(pivot["end"] - pivot["start"])


def with_pes(cfg, per_group):
    assert per_group % cfg.banks_per_bank_group == 0
    return dataclasses.replace(cfg, bpes_per_bank=per_group // cfg.banks_per_bank_group)


class TestBpeCycles:
    def test_default_32_bits(self):
        assert bpe_minplus_cycles(32) == 64

    def test_minimal_width(self):
        assert bpe_minplus_cycles(1) == 2

    def test_linearity_in_passes(self):
        assert bpe_minplus_cycles(32, add_passes=3) == 96

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bpe_minplus_cycles(0)
        with pytest.raises(ValueError):
            bpe_minplus_cycles(32, add_passes=0)


class TestRowPass:
    def test_single_pass_when_pes_match_tile_width(self):
        cfg = default_config()  # 256 PEs per bank-group
        assert row_pass_count(256, cfg) == 1

    def test_two_passes_for_double_width(self):
        assert row_pass_count(512, default_config()) == 2

    def test_two_passes_for_half_pes(self):
        assert row_pass_count(256, with_pes(default_config(), 128)) == 2

    def test_pass_count_exactness(self):
        cfg = default_config()
        for b in (1, 2, 7, 64, 255, 256, 257, 512, 1000):
            for pe in (64, 128, 256, 512):
                got = row_pass_count(b, with_pes(cfg, pe))
                assert got == -(-b // pe)

    def test_cycle_structure_default(self):
        # setup 60 + activation ceil((8+24)ns) 32 + passes * (64 compute + 12 wr)
        cfg = default_config()
        assert tile_row_pass_cost(256, cfg).cycles == 60 + 32 + 1 * 76
        assert tile_row_pass_cost(512, cfg).cycles == 60 + 32 + 2 * 76

    def test_saturation_no_gain_beyond_tile_width(self):
        cfg = default_config()
        at_256 = tile_row_pass_cost(256, with_pes(cfg, 256))
        at_512 = tile_row_pass_cost(256, with_pes(cfg, 512))
        assert at_256 == at_512

    def test_monotone_in_b(self):
        cfg = default_config()
        costs = [tile_row_pass_cost(b, cfg).cycles for b in (1, 64, 256, 300, 512, 1024)]
        assert costs == sorted(costs)

    def test_monotone_in_pes_until_saturation(self):
        cfg = default_config()
        cycles = [tile_row_pass_cost(256, with_pes(cfg, pe)).cycles
                  for pe in (64, 128, 256, 512)]
        assert cycles[0] > cycles[1] > cycles[2] == cycles[3]

    def test_counts_per_row(self):
        cfg = default_config()
        q = tile_row_pass_cost(256, cfg)
        assert q.counts.minplus_ops == 256
        assert q.counts.bits_read == 3 * 32 * 256
        assert q.counts.bits_written == 32 * 256
        assert q.counts.bpe_cycles == 64 * 256
        assert q.counts.row_activations == 1
        # one activation per hardware pass
        assert tile_row_pass_cost(512, cfg).counts.row_activations == 2

    def test_trc_floor(self):
        # With overheads zeroed and a 16-bit single-pass PE, raw work is
        # 16 cycles; re-activation spacing still pins the row-pass at t_RC.
        cfg = default_config()
        pim = dataclasses.replace(cfg.pim, row_pass_setup_cycles=0,
                                  add_passes=1, operand_bits=16)
        timing = dataclasses.replace(cfg.timing, t_rcd=0.0, t_ras=0.0, t_wr=0.0)
        tiny = dataclasses.replace(cfg, pim=pim, timing=timing)
        assert tile_row_pass_cost(1, tiny).cycles == tiny.cycles_from_ns(30)


class TestTileCosts:
    def test_b1_single_op_single_activation(self):
        q = tile_update_cost(1, default_config())
        assert q.counts.minplus_ops == 1
        assert q.counts.row_activations == 1

    def test_cubic_op_scaling(self):
        cfg = default_config()
        assert tile_update_cost(8, cfg).counts.minplus_ops == 512
        assert (
            tile_update_cost(16, cfg).counts.minplus_ops
            == 8 * tile_update_cost(8, cfg).counts.minplus_ops
        )

    def test_update_equals_b_squared_row_passes(self):
        cfg = default_config()
        for b in (4, 64, 256, 512):
            row = tile_row_pass_cost(b, cfg)
            q = tile_update_cost(b, cfg)
            assert q.cycles == b * b * row.cycles
            assert q.counts == row.counts.scaled(b * b)

    def test_pivot_at_least_update(self):
        cfg = default_config()
        for b in (16, 256, 512):
            assert pivot_cycles(b, cfg) >= tile_update_cost(b, cfg).cycles

    def test_pivot_monotone_in_b(self):
        cfg = default_config()
        vals = [pivot_cycles(b, cfg) for b in (8, 16, 64, 256)]
        assert vals == sorted(vals)

    def test_pivot_golden_snapshot_default_256(self):
        # 256^2 row-passes x 168 cycles each, frozen after the first build.
        assert pivot_cycles(256, default_config()) == 11_010_048


class TestCpe:
    def test_fan_in_four(self):
        assert cpe_reduction_cost(4, default_config()).cycles == 8

    def test_fan_in_one_base_only(self):
        assert cpe_reduction_cost(1, default_config()).cycles == 4

    def test_fan_in_32(self):
        assert cpe_reduction_cost(32, default_config()).cycles == 14

    def test_band_five_to_ten(self):
        cfg = default_config()
        for fan_in in range(2, 9):
            assert 5 <= cpe_reduction_cost(fan_in, cfg).cycles <= 10

    def test_counts_accrue(self):
        q = cpe_reduction_cost(4, default_config())
        assert q.counts.cpe_cycles == q.cycles


class TestBroadcast:
    def test_three_steps_across_one_channel(self):
        cfg = default_config()
        q = broadcast_cost(0, [1, 2, 3], 256, cfg)
        beats = 256 * 32 // 1024
        assert q.cycles == 3 * beats
        assert q.counts.tsv_bits == 0  # same channel: nothing crosses the TSV

    def test_single_step_within_group(self):
        cfg = default_config()
        q = broadcast_cost(5, [5], 256, cfg)
        assert q.cycles == 1 * (256 * 32 // 1024)

    def test_beats_per_step(self):
        cfg = default_config()
        assert broadcast_cost(0, [0], 256, cfg).cycles == 8
        assert broadcast_cost(0, [0], 512, cfg).cycles == 16

    def test_cross_channel_adds_one_step_and_counts_bits(self):
        cfg = default_config()
        q = broadcast_cost(0, [4], 256, cfg)  # group 4 = channel 1, entry slot
        assert q.cycles == 1 * 8
        assert q.counts.tsv_bits == 256 * 32
        q2 = broadcast_cost(0, [5], 256, cfg)  # one inter-group hop after crossing
        assert q2.cycles == 2 * 8

    def test_crossings_count_distinct_channels(self):
        cfg = default_config()
        q = broadcast_cost(0, [4, 8, 12], 256, cfg)
        assert q.counts.tsv_bits == 3 * 256 * 32

    def test_empty_destinations_rejected(self):
        with pytest.raises(ValueError):
            broadcast_cost(0, [], 256, default_config())


class TestEnergy:
    def test_zero_counts_zero_breakdown(self):
        e = energy_of(OpCounts(), default_config().energy)
        assert e.total_fj == 0

    def test_linearity(self):
        cfg = default_config()
        counts = OpCounts(row_activations=3, bits_read=100, bits_written=40,
                          bpe_cycles=500, cpe_cycles=20, tsv_bits=64, minplus_ops=7)
        once = energy_of(counts, cfg.energy)
        twice = energy_of(counts.scaled(2), cfg.energy)
        assert twice.total_fj == 2 * once.total_fj
        assert twice.dram_rw_fj == 2 * once.dram_rw_fj

    def test_conservation_exact(self):
        cfg = default_config()
        counts = OpCounts(row_activations=11, bits_read=313, bits_written=77,
                          bpe_cycles=999, cpe_cycles=13, tsv_bits=5, minplus_ops=3)
        e = energy_of(counts, cfg.energy)
        assert e.total_fj == (e.activation_fj + e.dram_rw_fj + e.bpe_fj
                              + e.cpe_fj + e.tsv_fj)

    def test_counts_compose_exactly(self):
        a = OpCounts(1, 2, 3, 4, 5, 6, 7)
        b = OpCounts(10, 20, 30, 40, 50, 60, 70)
        assert a + b == OpCounts(11, 22, 33, 44, 55, 66, 77)
        assert a.scaled(3) == OpCounts(3, 6, 9, 12, 15, 18, 21)
