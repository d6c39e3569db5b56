"""Property test: scheduler invariants over random valid configs.

Each example draws a geometry, PE and bus widths, operand width, passes per
min-plus op, both broadcast_overlap values and a bulk load of 0 or more
cycles, then checks timeline() and simulate() of one run with the wavefront
constraint relaxed: resource exclusivity, round barriers, the dependency
order inside each round, and that the run's totals (counts, per-bank-group
busy, total cycles, min-plus ops) are the sums over its events.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_scheduler as reference
from fwsim import EventKind, OpCounts, default_config, simulate, timeline


@st.composite
def runs(draw):
    """(n, b, m, cfg): m tiles per row in [1, 6], b in [1, 16], n padded or not."""
    d = default_config()
    pim = dataclasses.replace(
        d.pim,
        operand_bits=draw(st.integers(1, 64)),
        add_passes=draw(st.integers(1, 4)),
        broadcast_overlap=draw(st.booleans()),
        bulk_load_cycles=draw(st.sampled_from([0, 1, 5000])),
    )
    cfg = dataclasses.replace(
        d,
        channels=draw(st.integers(1, 8)),
        bank_groups_per_channel=draw(st.integers(1, 8)),
        banks_per_bank_group=draw(st.integers(1, 16)),
        bpes_per_bank=draw(st.integers(1, 16)),
        dq_bits=draw(st.sampled_from([1, 8, 64, 256, 1024, 4096])),
        pim=pim,
    )
    m = draw(st.integers(1, 6))
    b = draw(st.integers(1, 16))
    n = m * b - draw(st.integers(0, b - 1))
    return n, b, m, cfg


def check_dependency_order(k, events):
    """pivot -> pivot broadcast -> row/column updates -> wavefront, and each
    reduction or result broadcast after the update it follows."""
    kind, start, end = events["kind"], events["start"], events["end"]
    targets = list(zip(events["i"].tolist(), events["j"].tolist()))
    pivot = np.flatnonzero(kind == EventKind.PIVOT_FW)
    assert len(pivot) == 1 and targets[pivot[0]] == (k, k)
    rowcol = kind == EventKind.ROW_COL_UPDATE
    wavefront = kind == EventKind.REMAINING_UPDATE
    broadcasts = {targets[e]: e for e in np.flatnonzero(kind == EventKind.BROADCAST)}
    update_end = {targets[e]: end[e] for e in np.flatnonzero(rowcol | wavefront)}
    if not rowcol.any():
        assert len(events) == 1
        return
    fill = broadcasts.pop((k, k))
    assert end[pivot[0]] <= start[fill]
    assert (end[fill] <= start[rowcol]).all()
    assert broadcasts.keys() == {targets[e] for e in np.flatnonzero(rowcol)}
    for target, f in broadcasts.items():
        assert update_end[target] <= start[f]
    published = max(end[rowcol].max(), *(end[f] for f in broadcasts.values()))
    assert (published <= start[wavefront]).all()
    for e in np.flatnonzero(kind == EventKind.CPE_REDUCE):
        assert update_end[targets[e]] <= start[e]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(runs())
def test_scheduler_invariants(run):
    n, b, m, cfg = run
    result = simulate(n, b, cfg)
    events = timeline(n, b, cfg)
    kind, k, unit, start, end = (events[f] for f in ("kind", "k", "unit", "start", "end"))
    assert (start <= end).all()

    # Exclusivity per resource (0 the TSV bus, 1 a channel's reducer, 2 a
    # bank-group) and unit: sorted by start, each event ends before the next.
    resource = np.select([kind == EventKind.BROADCAST, kind == EventKind.CPE_REDUCE], [0, 1], 2)
    order = np.lexsort((end, start, unit, resource))
    same = np.diff(resource[order]) == 0
    same &= np.diff(unit[order]) == 0
    assert (end[order][:-1][same] <= start[order][1:][same]).all()

    rounds = sorted(set(k.tolist()))
    assert rounds == ([-1] if cfg.pim.bulk_load_cycles else []) + list(range(m))
    for r, nxt in zip(rounds, rounds[1:]):
        assert end[k == r].max() <= start[k == nxt].min()
    for r in range(m):
        check_dependency_order(r, events[k == r])

    # Each event counts its kind's quote plus its TSV bits.
    per_kind = np.bincount(kind, minlength=len(EventKind))
    total = OpCounts(tsv_bits=int(events["tsv_bits"].sum()))
    for of_kind, quote in reference.kind_quotes(b, cfg).items():
        total = total + quote.scaled(int(per_kind[of_kind]))
    assert result.counts == total
    tile = resource == 2
    busy = np.bincount(unit[tile], weights=end[tile] - start[tile],
                       minlength=cfg.total_bank_groups)
    assert result.per_bank_group_busy == busy.astype(np.int64).tolist()
    assert result.total_cycles == end.max()
    assert result.counts.minplus_ops == (m * b) ** 3
