"""Hardware description: mapping formula, validation, config files."""

import dataclasses
import json

import pytest

from fwsim import (
    HbmConfig,
    TileMap,
    default_config,
    load_config,
    map_tile_to_bank_group,
    tiles_on_bank_group,
    validate_config,
)
from fwsim.errors import ConfigError, ConstraintViolation
from fwsim.hbm import TimingParams, config_from_dict, config_to_dict


class TestMapping:
    def test_zero_case(self):
        assert map_tile_to_bank_group(0, 0, 16, 8, 4) == 0

    def test_interleave_example(self):
        assert map_tile_to_bank_group(1, 2, 16, 8, 4) == 18

    def test_wraparound(self):
        assert map_tile_to_bank_group(2, 0, 16, 8, 4) == 0

    def test_out_of_range_tile(self):
        with pytest.raises(IndexError):
            map_tile_to_bank_group(16, 0, 16, 8, 4)
        with pytest.raises(IndexError):
            map_tile_to_bank_group(0, -1, 16, 8, 4)

    def test_exhaustive_against_formula(self):
        for cg, (c, g) in {8: (2, 4), 32: (8, 4), 64: (16, 4)}.items():
            for m in range(1, 33):
                for i in range(m):
                    for j in range(m):
                        assert map_tile_to_bank_group(i, j, m, c, g) == (i * m + j) % cg

    def test_partition_property(self):
        m, c, g = 12, 8, 4
        seen = {}
        for bg in range(c * g):
            for t in tiles_on_bank_group(bg, m, c, g):
                assert t not in seen
                seen[t] = bg
        assert len(seen) == m * m

    def test_equal_load_when_divisible(self):
        m, c, g = 16, 8, 4
        counts = [len(tiles_on_bank_group(bg, m, c, g)) for bg in range(c * g)]
        assert counts == [m * m // (c * g)] * (c * g)

    def test_tiles_on_bank_group_example(self):
        tiles = tiles_on_bank_group(0, 16, 8, 4)
        assert len(tiles) == 8
        assert tiles[:3] == [(0, 0), (2, 0), (4, 0)]

    def test_m1_only_group_zero(self):
        assert tiles_on_bank_group(0, 1, 8, 4) == [(0, 0)]
        for bg in range(1, 32):
            assert tiles_on_bank_group(bg, 1, 8, 4) == []

    def test_row_adjacent_tiles_spread(self):
        m, c, g = 16, 8, 4
        for i in range(m):
            for j in range(m - 1):
                assert map_tile_to_bank_group(i, j, m, c, g) != map_tile_to_bank_group(
                    i, j + 1, m, c, g
                )

    def test_tilemap_channel_decomposition(self):
        tm = TileMap(m=16, channels=8, groups_per_channel=4)
        for bg in range(tm.total_bank_groups):
            assert tm.channel_of(bg) == bg // 4
            assert tm.group_within_channel(bg) == bg % 4
        assert tm.bank_group(1, 2) == 18


class TestDefaultsAndValidation:
    def test_default_values(self):
        cfg = default_config()
        assert cfg.timing.t_rc == 30
        assert cfg.timing.t_rcd == 8
        assert cfg.timing.t_ras == 24
        assert cfg.timing.t_rrd == 2
        assert cfg.timing.t_wr == 12
        assert cfg.timing.t_ccds == 2
        assert cfg.timing.t_ccdl == 4
        assert cfg.total_bank_groups == 32
        assert cfg.bpes_per_bank_group == 256
        assert cfg.row_bits == 8192
        assert cfg.dq_bits == 1024
        assert cfg.clock_period_ps == 1000

    def test_default_config_is_constant(self):
        assert default_config() == default_config()

    def test_wavefront_constraint(self):
        cfg = default_config()
        validate_config(cfg, 16)  # accepted
        with pytest.raises(ConstraintViolation) as exc:
            validate_config(cfg, 17)
        assert "2M" in str(exc.value)
        validate_config(dataclasses.replace(cfg, channels=16), 17)
        validate_config(dataclasses.replace(cfg, channels=16), 32)

    def test_structural_errors(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            validate_config(dataclasses.replace(cfg, channels=0), 1)
        with pytest.raises(ConfigError):
            validate_config(dataclasses.replace(cfg, row_bits=100), 1)
        bad_timing = dataclasses.replace(cfg, timing=TimingParams(t_rc=20, t_ras=24))
        with pytest.raises(ConfigError):
            validate_config(bad_timing, 1)
        bad_timing = dataclasses.replace(cfg, timing=TimingParams(t_rcd=30))
        with pytest.raises(ConfigError):
            validate_config(bad_timing, 1)

    def test_negative_tiles_per_row(self):
        with pytest.raises(ConfigError):
            validate_config(default_config(), 0)


class TestConfigFiles:
    def test_round_trip(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_default_keyword(self):
        assert load_config("default") == default_config()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        doc = config_to_dict(dataclasses.replace(default_config(), channels=4))
        path.write_text(json.dumps(doc))
        assert load_config(str(path)).channels == 4

    def test_partial_override_keeps_defaults(self):
        cfg = config_from_dict({"clock_period_ps": 2000, "pim": {"add_passes": 3}})
        assert cfg.clock_period_ps == 2000
        assert cfg.pim.add_passes == 3
        assert cfg.channels == 8
        assert cfg.timing.t_rc == 30

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"channles": 8})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"timing": {"t_rp_ns": 15}})
        with pytest.raises(ConfigError):
            config_from_dict({"energy": {"e_leak_pj": 1}})
        with pytest.raises(ConfigError):
            config_from_dict({"pim": {"passes": 2}})

    @pytest.mark.parametrize("doc", [
        {"channels": "8"},
        {"channels": True},
        {"channels": 8.0},
        {"timing": {"t_rc_ns": "30"}},
        {"timing": {"t_rc_ns": False}},
        {"energy": {"e_activate_pj": None}},
        {"pim": {"broadcast_overlap": "no"}},
        {"pim": {"broadcast_overlap": 0}},
    ], ids=repr)
    def test_value_of_wrong_type_rejected(self, doc):
        with pytest.raises(ConfigError, match="must be"):
            config_from_dict(doc)

    def test_float_field_takes_int(self):
        cfg = config_from_dict({"timing": {"t_rc_ns": 31}, "energy": {"e_tsv_bit_pj": 1}})
        assert cfg.timing.t_rc == 31
        assert cfg.energy.e_tsv_bit_pj == 1

    def test_units_annotated_in_field_names(self):
        doc = config_to_dict(default_config())
        assert "t_rc_ns" in doc["timing"]
        assert "e_activate_pj" in doc["energy"]
        assert "clock_period_ps" in doc

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_config_immutable(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.channels = 4
