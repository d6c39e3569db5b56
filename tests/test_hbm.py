"""Hardware description: mapping formula, validation, config files."""

import dataclasses
import json
from collections import Counter

import pytest

from fwsim import (
    HbmConfig,
    cli,
    default_config,
    load_config,
    simulate,
)
from fwsim.errors import ConfigError
from fwsim.hbm import MAX_BANK_GROUPS, TimingParams, config_from_dict, config_to_dict
from reference_scheduler import map_tile_to_bank_group


def load(m, c, g):
    """Tiles per bank-group under the interleaved map."""
    return Counter(map_tile_to_bank_group(i, j, m, c, g)
                   for i in range(m) for j in range(m))


def tiles_on(bg, m, c, g):
    """The tiles the interleaved map assigns to bank-group bg, row-major."""
    return [(i, j) for i in range(m) for j in range(m)
            if map_tile_to_bank_group(i, j, m, c, g) == bg]


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
        # Every tile lands on exactly one existing bank-group.
        m, c, g = 12, 8, 4
        counts = load(m, c, g)
        assert set(counts) <= set(range(c * g))
        assert sum(counts.values()) == m * m

    def test_equal_load_when_divisible(self):
        m, c, g = 16, 8, 4
        assert load(m, c, g) == Counter({bg: m * m // (c * g) for bg in range(c * g)})

    def test_tiles_on_bank_group_example(self):
        tiles = tiles_on(0, 16, 8, 4)
        assert len(tiles) == 8
        assert tiles[:3] == [(0, 0), (2, 0), (4, 0)]

    def test_m1_only_group_zero(self):
        assert load(1, 8, 4) == Counter({0: 1})

    def test_row_adjacent_tiles_spread(self):
        m, c, g = 16, 8, 4
        for i in range(m):
            for j in range(m - 1):
                assert map_tile_to_bank_group(i, j, m, c, g) != map_tile_to_bank_group(
                    i, j + 1, m, c, g
                )


class TestDefaultsAndValidation:
    def test_default_values(self):
        cfg = default_config()
        assert cfg.timing.t_rc == 30
        assert cfg.timing.t_rcd == 8
        assert cfg.timing.t_ras == 24
        assert cfg.timing.t_wr == 12
        assert cfg.total_bank_groups == 32
        assert cfg.bpes_per_bank_group == 256
        assert cfg.dq_bits == 1024
        assert cfg.clock_period_ps == 1000

    def test_default_config_is_constant(self):
        assert default_config() == default_config()

    def test_wavefront_constraint(self, tmp_path, capsys):
        """run, without --relax-wavefront, stages 2M <= C*G tiles: M = 16
        tiles per row on the default 32 bank-groups, 17 on 64."""
        def run(n, *config):
            return cli.main(["run", "--nodes", str(n), "--block-size", "1",
                             "--out", str(tmp_path / "report.json"), *config])

        assert run(16) == cli.EXIT_OK
        assert run(17) == cli.EXIT_USAGE
        assert "2M = 34" in capsys.readouterr().err
        doc = tmp_path / "channels16.json"
        doc.write_text('{"channels": 16}')
        assert run(17, "--config", str(doc)) == cli.EXIT_OK
        assert run(32, "--config", str(doc)) == cli.EXIT_OK

    def test_structural_errors(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, channels=0)
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, timing=TimingParams(t_rc=20, t_ras=24))
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, timing=TimingParams(t_rcd=30))

    @pytest.mark.parametrize("doc", [
        {"timing": {"t_rc_ns": float("inf")}},
        {"energy": {"e_tsv_bit_pj": float("inf")}},
        {"energy": {"e_read_bit_pj": -float("inf")}},
        {"timing": {"t_rc_ns": float("nan")}},
        {"energy": {"e_activate_pj": float("nan")}},
        {"timing": {"t_rc_ns": 1e308}},  # finite, but not in picoseconds
        {"timing": {"t_wr_ns": -1}},
        {"channels": 99999999999999999999},
        {"channels": 1000000000},
        {"bank_groups_per_channel": MAX_BANK_GROUPS // 8 + 1},
        {"pim": {"operand_bits": 0}},
        {"pim": {"add_passes": 0}},
        {"pim": {"cpe_base_cycles": -1}},
        {"pim": {"bulk_load_cycles": -1}},
    ], ids=repr)
    def test_out_of_range_values(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_bank_group_limit(self):
        cfg = default_config()
        at_limit = dataclasses.replace(cfg, channels=MAX_BANK_GROUPS // 4)
        assert at_limit.total_bank_groups == MAX_BANK_GROUPS
        with pytest.raises(ConfigError, match=str(MAX_BANK_GROUPS)):
            dataclasses.replace(cfg, channels=MAX_BANK_GROUPS // 4 + 1)


def case(doc, message):
    """A config document and its exact error message, named by the document."""
    return pytest.param(doc, message, id=repr(doc))


class TestConfigFiles:
    def test_round_trip(self):
        """The default config, and one with every settable value changed, so
        that every JSON key (the _ns suffix and the bool included) maps back."""
        changed = default_config()
        for path in settable_fields():
            changed = with_value(changed, path, ALTERNATIVES[path])
        for cfg in (default_config(), changed):
            assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

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

    @pytest.mark.parametrize("doc, message", [
        case({"row_bits": 8192}, "unknown config keys: ['row_bits']"),
        case({"rows_per_bank": 32768}, "unknown config keys: ['rows_per_bank']"),
        case({"stack_height": 4}, "unknown config keys: ['stack_height']"),
        case({"timing": {"t_rrd_ns": 2.0}}, "unknown timing config keys: ['t_rrd_ns']"),
        case({"timing": {"t_ccds_ns": 2.0}}, "unknown timing config keys: ['t_ccds_ns']"),
        case({"timing": {"t_ccdl_ns": 4.0}}, "unknown timing config keys: ['t_ccdl_ns']"),
        case({"pim": {"cpe_reduce_per_tile": True}},
             "unknown pim config keys: ['cpe_reduce_per_tile']"),
        case({"timing": {"t_rrd_ns": 2.0, "t_rc": 30.0}},
             "unknown timing config keys: ['t_rc', 't_rrd_ns']"),
    ])
    def test_removed_keys_rejected(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == message

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"timing": {"t_rp_ns": 15}})
        with pytest.raises(ConfigError):
            config_from_dict({"energy": {"e_leak_pj": 1}})
        with pytest.raises(ConfigError):
            config_from_dict({"pim": {"passes": 2}})

    @pytest.mark.parametrize("doc, message", [
        case({"channels": "8"}, "config key 'channels' must be int, got '8'"),
        case({"channels": True}, "config key 'channels' must be int, got True"),
        case({"channels": 8.0}, "config key 'channels' must be int, got 8.0"),
        case({"timing": {"t_rc_ns": "30"}}, "config key 'timing.t_rc_ns' must be float, got '30'"),
        case({"timing": {"t_rc_ns": False}},
             "config key 'timing.t_rc_ns' must be float, got False"),
        case({"energy": {"e_activate_pj": None}},
             "config key 'energy.e_activate_pj' must be float, got None"),
        case({"pim": {"broadcast_overlap": "no"}},
             "config key 'pim.broadcast_overlap' must be bool, got 'no'"),
        case({"pim": {"broadcast_overlap": 0}},
             "config key 'pim.broadcast_overlap' must be bool, got 0"),
        case([], "config document must be a JSON object"),
        case({"timing": 30}, "config section 'timing' must be an object"),
        case({"pim": [], "channels": 8}, "config section 'pim' must be an object"),
    ])
    def test_value_of_wrong_type_rejected(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == message

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


# A different valid value for every settable config field. Each must change
# simulate()'s output at one of LIVENESS_POINTS, so a field the model never
# reads cannot be added (or kept) without this test failing.
ALTERNATIVES = {
    "channels": 4,
    "bank_groups_per_channel": 8,
    "banks_per_bank_group": 8,
    "bpes_per_bank": 8,
    "dq_bits": 2048,
    "clock_period_ps": 2000,
    "timing.t_rc": 500.0,
    "timing.t_rcd": 4.0,
    "timing.t_ras": 20.0,
    "timing.t_wr": 20.0,
    "energy.e_activate_pj": 1000.0,
    "energy.e_read_bit_pj": 0.1,
    "energy.e_write_bit_pj": 0.1,
    "energy.e_bpe_cycle_pj": 0.1,
    "energy.e_cpe_cycle_pj": 0.2,
    "energy.e_tsv_bit_pj": 0.8,
    "pim.operand_bits": 16,
    "pim.add_passes": 3,
    "pim.row_pass_setup_cycles": 100,
    "pim.cpe_base_cycles": 8,
    "pim.cpe_stage_cycles": 3,
    "pim.broadcast_overlap": False,
    "pim.bulk_load_cycles": 5000,
}
# (n, b): m=2 with b = 2 x the default 256 PEs per bank-group, so PE counts
# and TSV width bind; m=8 with b=8, so tiles spread over channels.
LIVENESS_POINTS = ((1024, 512), (64, 8))


def settable_fields():
    for f in dataclasses.fields(HbmConfig):
        section = getattr(default_config(), f.name)
        if dataclasses.is_dataclass(section):
            yield from (f"{f.name}.{sf.name}" for sf in dataclasses.fields(section))
        else:
            yield f.name


def with_value(cfg, path, value):
    section, _, name = path.rpartition(".")
    if not section:
        return dataclasses.replace(cfg, **{name: value})
    inner = dataclasses.replace(getattr(cfg, section), **{name: value})
    return dataclasses.replace(cfg, **{section: inner})


def modeled(cfg):
    return [
        (r.total_cycles, r.total_time_ps, r.counts, r.energy, r.per_bank_group_busy)
        for r in (simulate(n, b, cfg) for n, b in LIVENESS_POINTS)
    ]


@pytest.mark.parametrize("path", list(settable_fields()))
def test_every_config_field_changes_the_model(path):
    base = default_config()
    changed = with_value(base, path, ALTERNATIVES[path])
    assert changed != base
    assert modeled(changed) != modeled(base), f"{path} is never read"
