"""A list's tapes against the stream's definition.

``_shared._tapes`` derives the tapes of consecutive trajectories together.
Each must equal ``_oracles.reference_tape``, one
``default_rng(SeedSequence(seed, spawn_key=(i,)))`` per trajectory, state for
state and draw for draw.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memlab import SimulationParams, build_model, entropy_production_samples, first_passage
from memlab import sawtooth_schedule
from memlab._shared import _ROWS, BLOCK, _tapes, run_chunks

from _oracles import reference_tape


def _assert_tapes_follow_the_definition(seed, lo, hi):
    tapes = _tapes(seed, lo, hi)
    assert len(tapes) == hi - lo
    for i, tape in zip(range(lo, hi), tapes):
        ref = reference_tape(seed, i)
        assert tape.bit_generator.state == ref.bit_generator.state, (seed, i)
        # the first block of triples: BLOCK exponentials, then BLOCK uniform pairs
        assert tape.standard_exponential(BLOCK).tolist() == ref.standard_exponential(BLOCK).tolist()
        assert tape.random((BLOCK, 2)).tolist() == ref.random((BLOCK, 2)).tolist()


@pytest.mark.parametrize("lo, hi", [
    (0, 3),
    (_ROWS - 4, _ROWS + 6),  # across the end of the first list
    (1333, 1338),  # three workers split 2000 trajectories at 666 and 1333
    (2**32 - 3, 2**32),  # the last one-word spawn keys
])
# one to four 32-bit words fill the pool; a fifth and later words mix in after it
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128,
                                  2**160 + 3, 2**256 - 1])
def test_tapes_equal_the_definition(seed, lo, hi):
    _assert_tapes_follow_the_definition(seed, lo, hi)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**256 - 1), lo=st.integers(0, 2**31 - 1), n=st.integers(1, 3))
def test_tapes_equal_the_definition_for_any_seed(seed, lo, n):
    _assert_tapes_follow_the_definition(seed, lo, lo + n)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def _no_batch(*args):
    raise AssertionError("a batch was run")


def test_n_traj_above_2_32_fails_at_once(monkeypatch):
    """Index 2**32 would need a two-word spawn key, a different stream."""
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    n = 2**32 + 1
    calls = [
        lambda: run_chunks(_no_batch, (), 0, n, 3),
        lambda: first_passage(build_model("IsingMeanField", N=4),
                              SimulationParams(0.5, 1.0, n_traj=n), workers=3),
        lambda: entropy_production_samples(sawtooth_schedule(1, 1.0, 2.0), n, workers=3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^n_traj must be at most 2\*\*32, got 4294967297"):
            call()
    assert multiprocessing.active_children() == []
