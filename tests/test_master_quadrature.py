"""The panel-quadrature master solve against a tight adaptive reference.

``integrate_master`` solves each coupled segment by Gauss-Legendre panels;
``_oracles.master_dop853`` integrates the same equations, with work and heat
as extra components, by DOP853 at rtol 1e-13.  They must agree to 1e-10 on
populations, per-step work and heat, and the output grid.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memlab import (Jump, ProtocolSchedule, Segment, build_model,
                    entropy_production_samples, integrate_master, sawtooth_schedule)

from _oracles import master_dop853
from test_ledger_golden import SCHEDULES

TOL = 1e-10


def _assert_agrees(schedule, p0, rates):
    sol = integrate_master(schedule, p0, rates=rates)
    ts, q1, ledger, p1 = master_dop853(schedule, p0, rates)
    assert np.array_equal(sol.ts, ts)
    assert np.abs(sol.ps[:, 1] - q1).max() <= TOL
    assert abs(sol.p_final[1] - p1) <= TOL
    for rec, (work, heat) in zip(sol.segments, ledger, strict=True):
        assert abs(rec.work - work) <= TOL * max(1.0, abs(work))
        assert abs(rec.heat - heat) <= TOL * max(1.0, abs(heat))


# (eps0, eps1) paths: both levels still, a splitting that crosses zero at
# T/3 (inside a panel: never on the grid T k / (32 m) for these m), and both
# levels moving without a crossing
PATHS = [((0.3, 0.3), (1.0, 1.0)), ((0.0, 0.0), (-1.0, 2.0)), ((0.5, -1.0), (3.0, 0.5))]


@pytest.mark.parametrize("rates", ["heat-bath", "metropolis"])
@pytest.mark.parametrize("T", [0.5, 7.0])
def test_segment_grid_matches_dop853(rates, T):
    for gamma, beta, (eps0, eps1), q0 in itertools.product(
            (0.6, 1.4), (0.5, 2.0), PATHS, (0.0, 0.4, 1.0)):
        schedule = ProtocolSchedule((Segment(0.0, T, eps0, eps1),), gamma=gamma, beta=beta)
        _assert_agrees(schedule, (1.0 - q0, q0), rates)


@pytest.mark.parametrize("rates", ["heat-bath", "metropolis"])
def test_long_ramp_matches_dop853(rates):
    # 400-long ramps: many panels per output interval; the second crosses zero
    schedule = ProtocolSchedule((Segment(0.0, 400.0, (0.0, 0.0), (5.0, 0.0)),
                                 Segment(400.0, 800.0, (0.0, 0.0), (0.0, -2.5))),
                                gamma=1.1, beta=1.3)
    _assert_agrees(schedule, (0.9, 0.1), rates)


@pytest.mark.parametrize("rates", ["heat-bath", "metropolis"])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_golden_schedules_match_dop853(name, rates):
    _assert_agrees(SCHEDULES[name], (0.7, 0.3), rates)


_energy = st.floats(-6.0, 6.0)


@st.composite
def _schedules(draw):
    n = draw(st.integers(1, 4))
    durations = draw(st.lists(st.floats(0.05, 40.0), min_size=n, max_size=n))
    segments, jumps, t = [], [], 0.0
    eps = (draw(_energy), draw(_energy))
    for T in durations:
        if draw(st.booleans()):  # a jump at the segment start
            after = (draw(_energy), draw(_energy))
            jumps.append(Jump(t, (eps[0], after[0]), (eps[1], after[1])))
            eps = after
        end = (draw(_energy), draw(_energy))
        segments.append(Segment(t, t + T, (eps[0], end[0]), (eps[1], end[1]),
                                coupled=draw(st.booleans())))
        t, eps = t + T, end
    return ProtocolSchedule(tuple(segments), tuple(jumps),
                            gamma=draw(st.floats(0.2, 3.0)), beta=draw(st.floats(0.1, 4.0)))


@settings(max_examples=60, deadline=None)
@given(schedule=_schedules(), q0=st.floats(0.0, 1.0),
       rates=st.sampled_from(["heat-bath", "metropolis"]))
def test_first_law_and_bounds_on_random_schedules(schedule, q0, rates):
    sol = integrate_master(schedule, (1.0 - q0, q0), rates=rates)
    assert sol.first_law_residual() <= 1e-12
    assert np.all((sol.ps >= 0.0) & (sol.ps <= 1.0))


# ---------------------------------------------------------------------------
# inputs rejected at the library boundary

SEG = Segment(0.0, 1.0, (0.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize("kwargs,name", [
    (dict(beta=math.nan), "beta"), (dict(beta=-1.0), "beta"), (dict(beta=0.0), "beta"),
    (dict(beta=math.inf), "beta"), (dict(gamma=math.nan), "gamma"),
    (dict(gamma=math.inf), "gamma"),
    (dict(segments=(Segment(0.0, math.inf, (0.0, 0.0), (0.0, 1.0)),)), "segments"),
    (dict(segments=(Segment(0.0, 1.0, (0.0, math.nan), (0.0, 1.0)),)), "segments"),
    (dict(jumps=(Jump(0.0, (0.0, 0.0), (math.inf, 0.0)),)), "jumps"),
])
def test_schedule_rejects_non_finite_and_non_positive(kwargs, name):
    kwargs = dict(dict(segments=(SEG,)), **kwargs)
    with pytest.raises(ValueError, match=name):
        ProtocolSchedule(**kwargs)


def test_integrate_master_checks_rates_and_p0_first():
    frozen = ProtocolSchedule((Segment(0.0, 1.0, (0.0, 0.0), (0.0, 1.0), coupled=False),))
    with pytest.raises(ValueError, match="rates"):
        integrate_master(frozen, (0.5, 0.5), rates="foo")
    for p0 in ((math.nan, 0.5), (0.5, math.nan), (math.inf, -math.inf)):
        with pytest.raises(ValueError, match="p0"):
            integrate_master(frozen, p0)


def test_integrate_master_bounds_the_panel_count():
    with pytest.raises(ValueError, match="panels"):
        integrate_master(ProtocolSchedule((Segment(0.0, 1e7, (0.0, 0.0), (1.0, 0.0)),)),
                         (0.5, 0.5))


@pytest.mark.parametrize("n_traj", [2.5, True, 0, "3"])
def test_entropy_production_n_traj_is_an_integer(n_traj):
    with pytest.raises(ValueError, match="n_traj"):
        entropy_production_samples(sawtooth_schedule(1, 1.0, 2.0), n_traj)


@pytest.mark.parametrize("kwargs,name", [
    (dict(J=math.nan), "J"), (dict(J=math.inf), "J"), (dict(move_rate=-1.0), "move_rate"),
    (dict(move_rate=math.nan), "move_rate"), (dict(move_rate=math.inf), "move_rate"),
])
@pytest.mark.parametrize("kind,size", [("Ising1D", dict(N=4)), ("Kitaev2D", dict(L=2))])
def test_build_model_rejects_bad_coupling_and_move_rate(kwargs, name, kind, size):
    with pytest.raises(ValueError, match=name):
        build_model(kind, **size, **kwargs)
