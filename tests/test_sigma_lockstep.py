"""The lockstep entropy-production sampler against the one-trajectory draw rule.

``entropy_production_samples`` steps whole batches of trajectories together.
Every check here is an ``==`` match against ``_oracles.sigma_samples_by_rule``,
which rebuilds each sample one trajectory at a time from the rule in the
``_shared`` docstring.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memlab import Jump, ProtocolSchedule, Segment, entropy_production_samples, sawtooth_schedule
from memlab import _shared

from _oracles import sigma_samples_by_rule
from test_ledger_golden import SCHEDULES


def _assert_follows_the_rule(schedule, n, seed, p0=(0.7, 0.3), rates="heat-bath", workers=1):
    res = entropy_production_samples(schedule, n, seed=seed, p0=p0, rates=rates,
                                     workers=workers)
    assert res.samples.tolist() == sigma_samples_by_rule(schedule, n, seed, p0, rates).tolist()
    return res


@pytest.mark.parametrize("n", [1, 2, 65, 200])
def test_every_ensemble_size_follows_the_rule(n):
    _assert_follows_the_rule(sawtooth_schedule(3, 1.0, 2.0), n, seed=4)


@pytest.mark.parametrize("rates", ["heat-bath", "metropolis"])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_golden_schedules_follow_the_rule(name, rates):
    """Jumps at the start, in the interior and at the end, and decoupled segments."""
    _assert_follows_the_rule(SCHEDULES[name], 120, seed=17, rates=rates)


def test_rows_that_need_a_third_block_follow_the_rule(monkeypatch):
    """At 40 periods a trajectory reads 81 triples plus about 40 proposals,
    against ``2 * BLOCK`` = 128 in two blocks: some rows of the batch read a
    third block, the others finish within two."""
    blocks = collections.Counter()
    draw = _shared._block

    def counted(rng, *out):
        blocks[id(rng)] += 1
        return draw(rng, *out)

    monkeypatch.setattr(_shared, "_block", counted)
    _assert_follows_the_rule(sawtooth_schedule(40, 1.0, 2.0), 500, seed=8)
    monkeypatch.undo()
    per_row = collections.Counter(blocks.values())  # rows by blocks read
    assert len(blocks) == 500 and set(per_row) == {2, 3}


def test_uneven_chunks_follow_the_rule():
    """Seven trajectories on three workers: chunks of 2, 2 and 3."""
    schedule = sawtooth_schedule(2, 1.0, 2.0)
    serial = _assert_follows_the_rule(schedule, 7, seed=12)
    parallel = _assert_follows_the_rule(schedule, 7, seed=12, workers=3)
    assert parallel.samples.tolist() == serial.samples.tolist()


def test_zero_backward_rate_is_still_refused():
    """beta * splitting = 1000: the uphill rate e^{-1000} gamma / 2 underflows
    to 0, so a trajectory that starts up and relaxes has no way back."""
    schedule = ProtocolSchedule((Segment(0.0, 2.0, (0.0, 0.0), (1000.0, 1000.0)),))
    with pytest.raises(ValueError, match="zero backward rate"):
        entropy_production_samples(schedule, 3, seed=1, p0=(0.0, 1.0))


def test_an_underflowed_backward_rate_names_beta():
    """A reversible sawtooth at beta = 800: e^{-beta |splitting|} underflows
    to 0 on the uphill flips, so the refusal names beta."""
    with pytest.raises(ValueError, match=r"^zero backward rate: .* at beta=800\.0"):
        entropy_production_samples(sawtooth_schedule(3, 1.0, 2.0, beta=800.0), 10)


@pytest.mark.parametrize("p0", [("0.5", "0.5"), (True, False), (10**400, 0),
                                (math.nan, 0.5), (1.5, -0.5)],
                         ids=["strings", "bools", "10**400", "nan", "outside-0-1"])
def test_p0_entries_are_reals_by_the_number_rule(p0):
    with pytest.raises(ValueError, match="^p0 must be a finite real number"):
        entropy_production_samples(sawtooth_schedule(1, 1.0, 2.0), 2, p0=p0)


_levels = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _schedules(draw):
    """Contiguous piecewise-linear segments, some decoupled (all of them, at
    times), with jumps at some boundaries, the end included."""
    n = draw(st.integers(1, 4))
    times = np.cumsum([0.0] + [draw(st.floats(0.1, 2.0)) for _ in range(n)]).tolist()
    e0, e1 = draw(_levels), draw(_levels)
    segments, jumps = [], []
    for i in range(n):
        if draw(st.booleans()):  # a quench at the segment's start
            new0, new1 = draw(_levels), draw(_levels)
            jumps.append(Jump(times[i], (e0, new0), (e1, new1)))
            e0, e1 = new0, new1
        end0, end1 = draw(_levels), draw(_levels)
        segments.append(Segment(times[i], times[i + 1], (e0, end0), (e1, end1),
                                coupled=draw(st.booleans())))
        e0, e1 = end0, end1
    if draw(st.booleans()):
        jumps.append(Jump(times[n], (e0, draw(_levels)), (e1, draw(_levels))))
    return ProtocolSchedule(tuple(segments), tuple(jumps), gamma=draw(st.floats(0.3, 3.0)),
                            beta=draw(st.floats(0.2, 3.0)))


@settings(max_examples=25, deadline=None)
@given(schedule=_schedules(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       q=st.floats(0.05, 0.95), rates=st.sampled_from(["heat-bath", "metropolis"]))
def test_random_schedules_follow_the_rule(schedule, n, seed, q, rates):
    _assert_follows_the_rule(schedule, n, seed, p0=(1.0 - q, q), rates=rates)
