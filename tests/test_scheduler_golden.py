"""simulate() and timeline() against a golden captured from the scheduler
before the kept/elided timeline fork was removed, when each event was an
object with a kind, round, target tile, resource string, start and end cycle,
and op counts.

scheduler_golden.json holds, per design point, the totals, op counts, energy,
per-bank-group busy cycles, utilization summary, and the event count plus a
sha256 over every event (one line per event). event_line rebuilds each line
from a timeline record: the resource string from its kind and unit, and the
counts from its kind's quote plus its TSV bits. Points are m in
{1, 2, 3, 5, 16, 32} tiles per row with n = m * b, b in {8, 64}, on four
configs, all with the wavefront constraint relaxed.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import reference_scheduler as reference
from fwsim import (EventKind, OpCounts, default_config, load_config, simulate, timeline,
                   utilization_report)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).with_name("scheduler_golden.json")).read_text())


def configs():
    d = default_config()
    return {
        "default": d,
        "calibrated": load_config(str(ROOT / "configs" / "calibrated_592s.json")),
        "channels1": dataclasses.replace(d, channels=1),
        "bulkload_no_overlap": dataclasses.replace(
            d, pim=dataclasses.replace(d.pim, bulk_load_cycles=5000,
                                       broadcast_overlap=False)),
    }


def event_line(event, fields):
    """The golden's line for one record, a tuple of ints in EVENT field order.
    fields(kind, unit, tsv_bits) gives the kind's name, the resource string
    and the op counts."""
    kind, k, i, j, unit, start, end, tsv_bits = event
    name, resource, counts = fields(kind, unit, tsv_bits)
    target = None if k == -1 else (i, j)
    return f"{name}|{k}|{target}|{resource}|{start}|{end}|{counts}\n"


def record(r, events, b, cfg):
    quotes = reference.kind_quotes(b, cfg)

    @functools.cache
    def fields(kind, unit, tsv_bits):
        kind = EventKind(kind)
        resource = {EventKind.BROADCAST: "tsv", EventKind.CPE_REDUCE: f"ch:{unit}"}.get(
            kind, f"bg:{unit}")
        counts = quotes[kind] + OpCounts(tsv_bits=tsv_bits)
        return kind.name.lower(), resource, tuple(vars(counts).values())

    digest = hashlib.sha256()
    for event in events.tolist():
        digest.update(event_line(event, fields).encode())
    u = utilization_report(r)
    return {
        "total_cycles": r.total_cycles, "total_time_ps": r.total_time_ps,
        "bulk_load_cycles": r.bulk_load_cycles,
        "counts": dataclasses.asdict(r.counts), "energy": r.energy.as_dict(),
        "busy": r.per_bank_group_busy,
        "utilization": {k: u[k] for k in ("max", "min", "mean")},
        "events": len(events), "events_sha256": digest.hexdigest(),
    }


def test_simulate_and_timeline_reproduce_golden():
    got = {}
    for name, cfg in configs().items():
        for m in (1, 2, 3, 5, 16, 32):
            for b in (8, 64):
                r = simulate(m * b, b, cfg)
                events = timeline(m * b, b, cfg)
                got[f"{name}/m{m}/b{b}"] = record(r, events, b, cfg)
    assert got.keys() == GOLDEN.keys()
    for key, expected in GOLDEN.items():
        assert got[key] == expected, key


# Totals of the paper's 8,192-vertex graph at b = 64 and 128 (m = 128 and
# 64), relaxed, captured the same way: no utilization or event hash.
GOLDEN_N8192 = json.loads((Path(__file__).with_name("scheduler_golden_n8192.json")).read_text())


def test_simulate_reproduces_n8192_totals():
    got = {}
    for name in ("default", "calibrated"):
        for b in (64, 128):
            r = simulate(8192, b, configs()[name])
            got[f"{name}/n8192/b{b}"] = {
                "tiles_per_row": r.tiles_per_row, "total_cycles": r.total_cycles,
                "total_time_ps": r.total_time_ps, "counts": dataclasses.asdict(r.counts),
                "energy": r.energy.as_dict(), "busy": r.per_bank_group_busy,
            }
    assert got == GOLDEN_N8192
