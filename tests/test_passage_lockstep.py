"""The lockstep mean-field first passage against the event loop.

``first_passage`` on IsingMeanField with the default predicate steps a whole
batch of trajectories together as a walk in the magnetization.  Passing
``predicate=magnetization_nonpositive``, the same stop test, runs every
trajectory through the one-trajectory event loop instead, so each check here
is an ``==`` match between the two public paths on the same tapes.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import memlab.dynamics
from memlab import SimulationParams, build_model, first_passage, magnetization_nonpositive


def _both(N, beta, t_max, n, seed, J=1.0, workers=1):
    model = build_model("IsingMeanField", N=N, J=J)
    params = SimulationParams(beta, t_max, n_traj=n)
    walk = first_passage(model, params, seed=seed, workers=workers)
    loop = first_passage(model, params, predicate=magnetization_nonpositive, seed=seed,
                         workers=workers)
    assert walk.times.tolist() == loop.times.tolist()
    assert (walk.mean, walk.stderr, walk.censored) == (loop.mean, loop.stderr, loop.censored)
    return walk


@pytest.fixture
def row_batches(monkeypatch):
    """The number of rows of each lockstep batch, in call order."""
    sizes = []
    walk = memlab.dynamics._mean_field_walk

    def counted(model, params, tapes):
        sizes.append(len(tapes))
        return walk(model, params, tapes)

    monkeypatch.setattr(memlab.dynamics, "_mean_field_walk", counted)
    return sizes


@pytest.mark.parametrize("n", [1, 2, 65, 1025])
def test_every_ensemble_size_matches_the_loop(n, row_batches):
    """1025 trajectories take a batch of 1024 rows and then one of 1."""
    _both(8, 1.35, 5000.0, n, seed=3)
    assert row_batches == ([1024, 1] if n == 1025 else [n])


@pytest.mark.parametrize("N", [1, 8, 16])
@pytest.mark.parametrize("J", [1.0, -1.0])
def test_sizes_and_couplings_match_the_loop(N, J):
    _both(N, 1.35, 5000.0, 120, seed=N, J=J)


def test_censoring_matches_the_loop():
    res = _both(16, 1.35, 3.0, 300, seed=5)
    assert 0 < res.censored < 300


def test_unbounded_horizon_matches_the_loop():
    res = _both(9, 1.0, math.inf, 200, seed=6)
    assert res.censored == 0


def test_a_frozen_state_is_censored_like_the_loop():
    """At beta = 10^6 every rate of the all-up state underflows to 0."""
    res = _both(8, 1e6, 2.5, 4, seed=7)
    assert res.times.tolist() == [2.5] * 4


@pytest.mark.parametrize("predicate", [None, magnetization_nonpositive], ids=["walk", "loop"])
def test_no_event_in_finite_time_raises_on_both_paths(predicate):
    model = build_model("IsingMeanField", N=8)
    with pytest.raises(RuntimeError, match="no event in finite time"):
        first_passage(model, SimulationParams(1e6, math.inf, n_traj=3), predicate=predicate)


def test_uneven_chunks_match_the_loop():
    """Seven trajectories on three workers: chunks of 2, 2 and 3."""
    serial = _both(12, 1.2, 5000.0, 7, seed=12)
    parallel = _both(12, 1.2, 5000.0, 7, seed=12, workers=3)
    assert parallel.times.tolist() == serial.times.tolist()


@settings(max_examples=30, deadline=None)
@given(N=st.integers(1, 16), beta=st.floats(0.0, 1.5), J=st.floats(-1.0, 1.0),
       t_max=st.one_of(st.just(math.inf), st.floats(0.05, 50.0)),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_random_ensembles_match_the_loop(N, beta, J, t_max, n, seed):
    _both(N, beta, t_max, n, seed, J=J)
