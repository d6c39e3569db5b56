"""Deterministic simulator of blocked Floyd-Warshall APSP on an HBM3 stack
with in-bank min-plus processing elements and channel-level reducers."""

__version__ = "0.1.0"

from .graphs import (
    INF,
    build_distance_matrix,
    from_tile_major,
    gen_synthetic,
    parse_edge_list,
    to_tile_major,
)
from .fw import (
    fw_blocked,
    fw_reference,
)
from .hbm import (
    HbmConfig,
    default_config,
    load_config,
)
from .perf import (
    OpCounts,
    bpe_minplus_cycles,
    cpe_reduction_cost,
    energy_of,
    tile_row_pass_cost,
    tile_update_cost,
)
from .scheduler import (
    EventKind,
    simulate,
    simulate_functional,
    timeline,
    utilization_report,
)

__all__ = [
    "INF",
    "HbmConfig",
    "OpCounts",
    "EventKind",
    "build_distance_matrix",
    "from_tile_major",
    "gen_synthetic",
    "parse_edge_list",
    "to_tile_major",
    "fw_blocked",
    "fw_reference",
    "default_config",
    "load_config",
    "bpe_minplus_cycles",
    "cpe_reduction_cost",
    "energy_of",
    "tile_row_pass_cost",
    "tile_update_cost",
    "simulate",
    "simulate_functional",
    "timeline",
    "utilization_report",
]
