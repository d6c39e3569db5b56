"""Simulated hardware description: HBM3 geometry, timing and energy constants,
and processing-element model knobs. The scheduler maps tiles to bank-groups.

A config is checked when it is built, by HbmConfig.__post_init__, which
dataclasses.replace and config_from_dict run too, and is immutable and freely
shareable. Durations are float nanoseconds (TimingParams) and the logic clock
integer picoseconds; HbmConfig.cycles_from_ns rounds a duration to whole
picoseconds at each use, then up to whole cycles. JSON config files annotate
units in the field names (t_rc_ns, clock_period_ps, ...).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError

# Bank-groups a config may declare (channels * bank_groups_per_channel): the
# scheduler keeps per-group state. The modeled 8-channel stack has 32.
MAX_BANK_GROUPS = 1 << 16


@dataclass(frozen=True)
class TimingParams:
    """DRAM timing constraints, nanoseconds."""

    t_rc: float = 30.0     # row cycle: minimum interval between activations of a bank
    t_rcd: float = 8.0     # activate to column command
    t_ras: float = 24.0    # minimum row-active time
    t_wr: float = 12.0     # write recovery


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energy constants, picojoules.

    These are calibration knobs: the architecture defines the accounting
    categories, not the constants. Every energy report is stamped with the
    values used.
    """

    e_activate_pj: float = 900.0   # per row activation
    e_read_bit_pj: float = 0.05    # per bit read through the row-buffer interface
    e_write_bit_pj: float = 0.05   # per bit written back
    e_bpe_cycle_pj: float = 0.05   # per bank-PE active cycle
    e_cpe_cycle_pj: float = 0.1    # per channel-PE active cycle
    e_tsv_bit_pj: float = 0.4      # per bit crossing the TSV bus between channels

    def fj(self, name: str) -> int:
        return round(getattr(self, name) * 1000)


@dataclass(frozen=True)
class PimParams:
    """Processing-element and dataflow model knobs."""

    operand_bits: int = 32
    # Bit-serial passes per min-plus op: one for the sum, one for the
    # compare/select. Each pass costs operand_bits cycles.
    add_passes: int = 2
    # Fixed per-row-pass overhead: command issue, row-buffer slice select,
    # PE array start/drain. Calibrated so halving/quartering the PEs per
    # bank-group lands on the observed ~1.45x / ~2.35x slowdowns.
    row_pass_setup_cycles: int = 60
    # Channel-PE comparison tree: base + ceil(log2(fan_in)) * stage cycles.
    cpe_base_cycles: int = 4
    cpe_stage_cycles: int = 2
    # Overlap steady-state pivot-vector broadcasts with compute of the
    # previous inner-product step (one-deep pipeline).
    broadcast_overlap: bool = True
    # Host bulk load of the tile-major matrix, charged once up front and
    # reported separately. Default 0: not modeled.
    bulk_load_cycles: int = 0


@dataclass(frozen=True)
class HbmConfig:
    """One simulated HBM3 stack with per-bank PEs and per-channel reducers."""

    channels: int = 8
    bank_groups_per_channel: int = 4
    banks_per_bank_group: int = 16
    bpes_per_bank: int = 16
    dq_bits: int = 1024           # TSV lanes: bits moved per bus beat
    clock_period_ps: int = 1000   # one PIM/DRAM logic cycle
    timing: TimingParams = field(default_factory=TimingParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    pim: PimParams = field(default_factory=PimParams)

    def __post_init__(self):
        """Refuse a config the scheduler cannot model: a count below 1, more
        than MAX_BANK_GROUPS bank-groups, inconsistent timings, or a float
        that does not scale to an int."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not dataclasses.is_dataclass(value) and value < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {value}")
        if self.total_bank_groups > MAX_BANK_GROUPS:
            raise ConfigError(f"channels * bank_groups_per_channel must be <= "
                              f"{MAX_BANK_GROUPS}, got {self.total_bank_groups}")
        # Every float is scaled by 1000 (ns to ps, pJ to fJ) and rounded to an
        # int, so NaN, infinity and values whose scaled form overflows are rejected.
        for prefix, section in (("timing", self.timing), ("energy", self.energy)):
            for f in dataclasses.fields(section):
                value = getattr(section, f.name)
                if not (value >= 0 and math.isfinite(value * 1000)):
                    raise ConfigError(
                        f"{prefix}.{f.name} must be finite and non-negative, got {value}")
        t = self.timing
        if t.t_ras > t.t_rc:
            raise ConfigError(f"t_ras ({t.t_ras}) must not exceed t_rc ({t.t_rc})")
        if t.t_rcd > t.t_ras:
            raise ConfigError(f"t_rcd ({t.t_rcd}) must not exceed t_ras ({t.t_ras})")
        p = self.pim
        if p.operand_bits < 1 or p.add_passes < 1:
            raise ConfigError("pim.operand_bits and pim.add_passes must be >= 1")
        if min(p.row_pass_setup_cycles, p.cpe_base_cycles, p.cpe_stage_cycles,
               p.bulk_load_cycles) < 0:
            raise ConfigError("pim cycle constants must be non-negative")

    @property
    def total_bank_groups(self) -> int:
        return self.channels * self.bank_groups_per_channel

    @property
    def bpes_per_bank_group(self) -> int:
        return self.banks_per_bank_group * self.bpes_per_bank

    def cycles_from_ns(self, ns_value: float) -> int:
        """Convert a duration in ns to whole cycles, rounding up."""
        ps = round(ns_value * 1000)
        return -(-ps // self.clock_period_ps)


def default_config() -> HbmConfig:
    """The baseline stack: 8 channels x 4 bank-groups, 256 PEs per bank-group
    (16 banks x 16 PEs), 1024 TSV lanes, 1 ns logic cycle."""
    return HbmConfig()


# --- JSON config files -----------------------------------------------------

def _keys(cls) -> dict:
    """JSON key -> field of a config record; timing keys carry their unit, ns."""
    return {f.name + ("_ns" if cls is TimingParams else ""): f for f in dataclasses.fields(cls)}


def config_to_dict(cfg: HbmConfig) -> dict:
    """Flat JSON-ready view of a config, units annotated in field names."""
    out = {key: getattr(cfg, f.name) for key, f in _keys(type(cfg)).items()}
    return {k: config_to_dict(v) if dataclasses.is_dataclass(v) else v for k, v in out.items()}


# JSON value types each field type accepts. bool is an int in Python, so it is
# excluded from int and float fields and is the only type a bool field takes.
_ACCEPTED = {"int": int, "float": (int, float), "bool": bool}


def _from_dict(cls, data, section: str):
    """A cls record from the JSON object under key section ('' for the whole
    document). Fields whose default is a record recurse as sections; every
    other value must be of its field's type."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section!r} must be an object" if section
                          else "config document must be a JSON object")
    keys = _keys(cls)
    unknown = set(data) - set(keys)
    if unknown:
        where = f"{section} " if section else ""
        raise ConfigError(f"unknown {where}config keys: {sorted(unknown)}")
    kwargs = {}
    for key in [key for key in keys if key in data]:
        f, value = keys[key], data[key]
        if dataclasses.is_dataclass(f.default_factory):
            value = _from_dict(f.default_factory, value, key)
        elif isinstance(value, bool) != (f.type == "bool") or not isinstance(
                value, _ACCEPTED[f.type]):
            name = f"{section}.{key}" if section else key
            raise ConfigError(f"config key {name!r} must be {f.type}, got {value!r}")
        kwargs[f.name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> HbmConfig:
    """Build a config from a (possibly partial) dict; unknown keys, values of
    the wrong type and configs HbmConfig refuses are rejected.

    Missing keys fall back to the defaults, so calibration files only need to
    state the constants they override.
    """
    return _from_dict(HbmConfig, data, "")


def load_config(source: str) -> HbmConfig:
    """Load a config: the literal string 'default' or a path to a JSON file."""
    if source == "default":
        return default_config()
    with open(source, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, not UTF-8, or an int past the digit limit
            raise ConfigError(f"invalid config JSON in {source}: {exc}") from None
    return config_from_dict(data)
