"""Property test: the array scheduler against the scalar reference scheduler.

fwsim.scheduler computes each pivot round with closed forms over arrays;
reference_scheduler walks the same rounds one tile at a time. Over random
configs, both must give the same SimResult (the repr of every field) and the
same timeline, record for record.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_scheduler as reference
from fwsim import default_config, scheduler, simulate, timeline
from fwsim.hbm import MAX_BANK_GROUPS


@st.composite
def runs(draw):
    """(n, b, cfg): m tiles per row in [1, 12], b in [1, 20], n padded or not,
    on 1-9 channels of 1-9 bank-groups, channel-PE reductions of zero cycles
    included."""
    d = default_config()
    pim = dataclasses.replace(
        d.pim,
        operand_bits=draw(st.integers(1, 64)),
        add_passes=draw(st.integers(1, 3)),
        cpe_base_cycles=draw(st.sampled_from([0, 1, 4])),
        cpe_stage_cycles=draw(st.sampled_from([0, 2])),
        broadcast_overlap=draw(st.booleans()),
        bulk_load_cycles=draw(st.sampled_from([0, 1, 5000])),
    )
    cfg = dataclasses.replace(
        d,
        channels=draw(st.integers(1, 9)),
        bank_groups_per_channel=draw(st.integers(1, 9)),
        bpes_per_bank=draw(st.integers(1, 16)),
        dq_bits=draw(st.integers(8, 1024)),
        pim=pim,
    )
    m = draw(st.integers(1, 12))
    b = draw(st.integers(1, 20))
    n = m * b - draw(st.integers(0, b - 1))
    return n, b, cfg


def assert_matches_reference(n, b, cfg):
    got = simulate(n, b, cfg)
    expected = reference.simulate(n, b, cfg)
    for field in dataclasses.fields(got):
        assert repr(getattr(got, field.name)) == repr(getattr(expected, field.name)), field.name
    events = timeline(n, b, cfg)
    assert events.dtype == scheduler.EVENT
    assert np.array_equal(events, reference.timeline(n, b, cfg))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(runs())
def test_array_scheduler_matches_reference(run):
    assert_matches_reference(*run)


def geometry(channels, groups, **pim):
    d = default_config()
    return dataclasses.replace(d, channels=channels, bank_groups_per_channel=groups,
                               pim=dataclasses.replace(d.pim, **pim))


@pytest.mark.parametrize("run", [
    (5 * 4, 4, geometry(8, 4)),            # m^2 = 25 < 32 bank-groups: one lap of 28
    (7 * 3 - 1, 3, geometry(8, 4)),        # 49 tiles in laps of 32: the last ragged
    (8 * 2, 2, geometry(2, 4)),            # m = G = 8: each wavefront column on one group
    (16 * 2 - 1, 2, geometry(2, 4, broadcast_overlap=False, bulk_load_cycles=5000)),  # m = 2G
    (6 * 3, 3, geometry(1, 5)),            # one channel
    (9 * 2 - 1, 2, geometry(6, 1)),        # one bank-group per channel
    (3 * 4, 4, geometry(2, 16)),           # 9 tiles in one channel of 16
    (7 * 3, 3, geometry(2, 4, row_pass_setup_cycles=1 << 31)),  # rounds past int32
], ids=["few-tiles", "ragged", "m-is-G", "2G-no-overlap", "one-channel", "g-is-1",
        "channel-wider-than-grid", "int64-grid"])
def test_fold_edges_match_reference(run):
    """The folded grid's edge cases, against the reference."""
    assert_matches_reference(*run)


@pytest.mark.parametrize("updates, sizes", [
    (1, [1] * 7),         # one round per group
    (3 * 49, [3, 3, 1]),  # a ragged last group
], ids=["one-round", "ragged"])
def test_rounds_batched_across_groups_match_reference(monkeypatch, updates, sizes):
    """m = 7 rounds split into several groups: each group's round starts
    continue the previous group's, and its busy and TSV sums add to them."""
    monkeypatch.setattr(scheduler, "_GROUP_UPDATES", updates)
    folded = []
    fold = scheduler._fold

    def spy(values, period):
        folded.append(len(values))
        return fold(values, period)

    monkeypatch.setattr(scheduler, "_fold", spy)
    d = default_config()
    simulate(7 * 5, 5, d)
    assert folded[::2] == sizes  # two folds per group, row and column tiles, each (rounds, m)
    for cfg in (d, dataclasses.replace(d, channels=1, bank_groups_per_channel=3),
                dataclasses.replace(d, pim=dataclasses.replace(d.pim, bulk_load_cycles=5000,
                                                               broadcast_overlap=False))):
        assert_matches_reference(7 * 5 - 2, 5, cfg)


@pytest.mark.parametrize("channels, groups", [(256, 256), (1, 1 << 16)])
def test_max_bank_groups_match_reference(monkeypatch, channels, groups):
    """MAX_BANK_GROUPS bank-groups at m = 3, by default and with all three
    rounds in one group: 9 tiles on as many bank-groups, in one channel
    of 256 or of 2^16 of them, so the grid is one lap of 9."""
    d = default_config()
    cfg = dataclasses.replace(d, channels=channels, bank_groups_per_channel=groups)
    assert cfg.total_bank_groups == MAX_BANK_GROUPS
    assert_matches_reference(3 * 4, 4, cfg)
    monkeypatch.setattr(scheduler, "_GROUP_UPDATES", 1 << 20)
    assert_matches_reference(3 * 4, 4, cfg)


def test_busy_sums_past_2_53_match_reference():
    """Busy totals near 1.5e17, past float64's exact integers: they are summed
    in int64, not through a float."""
    d = default_config()
    cfg = dataclasses.replace(d, channels=1, bank_groups_per_channel=2,
                              pim=dataclasses.replace(d.pim, row_pass_setup_cycles=2**50 + 1))
    assert max(simulate(9, 3, cfg).per_bank_group_busy) > 2**53
    assert_matches_reference(9, 3, cfg)
