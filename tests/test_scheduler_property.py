"""Property test: scheduler invariants over random valid configs.

Each example draws a geometry, PE and bus widths, operand width, passes per
min-plus op, both broadcast_overlap values and a bulk load of 0 or more
cycles, then checks timeline() and simulate() of one run with the wavefront
constraint relaxed: resource exclusivity, round barriers, the dependency
order inside each round, and that the run's totals (counts, per-bank-group
busy, total cycles, min-plus ops) are the sums over its events.
"""

import dataclasses
from collections import defaultdict

from hypothesis import given, settings, strategies as st

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
    pivot = [e for e in events if e.kind is EventKind.PIVOT_FW]
    assert len(pivot) == 1 and pivot[0].target == (k, k)
    rowcol = [e for e in events if e.kind is EventKind.ROW_COL_UPDATE]
    wavefront = [e for e in events if e.kind is EventKind.REMAINING_UPDATE]
    broadcasts = {e.target: e for e in events if e.kind is EventKind.BROADCAST}
    update_end = {e.target: e.end_cycle for e in rowcol + wavefront}
    if not rowcol:
        assert events == pivot
        return
    fill = broadcasts.pop((k, k))
    assert pivot[0].end_cycle <= fill.start_cycle
    assert all(fill.end_cycle <= e.start_cycle for e in rowcol)
    assert broadcasts.keys() == {e.target for e in rowcol}
    for target, f in broadcasts.items():
        assert update_end[target] <= f.start_cycle
    published = max(e.end_cycle for e in rowcol + list(broadcasts.values()))
    assert all(published <= e.start_cycle for e in wavefront)
    for e in events:
        if e.kind is EventKind.CPE_REDUCE:
            assert update_end[e.target] <= e.start_cycle


@settings(max_examples=300, derandomize=True, deadline=None)
@given(runs())
def test_scheduler_invariants(run):
    n, b, m, cfg = run
    result = simulate(n, b, cfg, enforce_wavefront=False)
    events = timeline(n, b, cfg, enforce_wavefront=False)

    by_resource = defaultdict(list)
    by_round = defaultdict(list)
    for e in events:
        assert e.start_cycle <= e.end_cycle
        by_resource[e.resource].append(e)
        by_round[e.k].append(e)
    for same in by_resource.values():
        same.sort(key=lambda e: (e.start_cycle, e.end_cycle))
        for a, nxt in zip(same, same[1:]):
            assert a.end_cycle <= nxt.start_cycle

    rounds = sorted(by_round)
    assert rounds == ([-1] if cfg.pim.bulk_load_cycles else []) + list(range(m))
    for k, nxt in zip(rounds, rounds[1:]):
        assert (max(e.end_cycle for e in by_round[k])
                <= min(e.start_cycle for e in by_round[nxt]))
    for k in range(m):
        check_dependency_order(k, by_round[k])

    total = OpCounts()
    for e in events:
        total = total + e.counts
    assert result.counts == total
    busy = [0] * cfg.total_bank_groups
    for e in events:
        if e.resource.startswith("bg:"):
            busy[int(e.resource[3:])] += e.end_cycle - e.start_cycle
    assert result.per_bank_group_busy == busy
    assert result.total_cycles == max(e.end_cycle for e in events)
    assert result.counts.minplus_ops == (m * b) ** 3
