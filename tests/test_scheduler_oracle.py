"""Property test: the array scheduler against the scalar reference scheduler.

fwsim.scheduler computes each pivot round with closed forms over arrays;
reference_scheduler walks the same rounds one tile at a time. Over random
configs, both must give the same SimResult (the repr of every field) and the
same timeline, event for event.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

import reference_scheduler as reference
from fwsim import default_config, simulate, timeline


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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(runs())
def test_array_scheduler_matches_reference(run):
    n, b, cfg = run
    got = simulate(n, b, cfg, enforce_wavefront=False)
    expected = reference.simulate(n, b, cfg, enforce_wavefront=False)
    for field in dataclasses.fields(got):
        assert repr(getattr(got, field.name)) == repr(getattr(expected, field.name)), field.name
    events = timeline(n, b, cfg, enforce_wavefront=False)
    expected_events = reference.timeline(n, b, cfg, enforce_wavefront=False)
    assert len(events) == len(expected_events)
    for e, x in zip(events, expected_events):
        assert repr(e) == repr(x)

