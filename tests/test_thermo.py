"""Extraction strokes, engine cycles, and entropy-production statistics."""

import math

import numpy as np
import pytest

from memlab import (
    MemoryModel,
    ProtocolSchedule,
    Segment,
    cycle_zero_crossing,
    entropy_production_samples,
    integrate_master,
    memory_engine_cycle,
    sawtooth_schedule,
    szilard_run,
)

from _oracles import mean_sigma_ode, quasistatic_extracted

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# extraction stroke


_STROKE = dict(E_max=5.0, ramp_time=1.0, beta=1.0, p_init=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(E_max=0.0, ramp_time=1.0, beta=1.0, p_init=0.0),
    dict(E_max=5.0, ramp_time=-1.0, beta=1.0, p_init=0.0),
    dict(E_max=5.0, ramp_time=1.0, beta=1.0, p_init=1.5),
    dict(E_max=math.nan, ramp_time=1.0, beta=1.0, p_init=0.0),
    dict(E_max=math.inf, ramp_time=1.0, beta=1.0, p_init=0.0),
    dict(E_max=5.0, ramp_time=math.nan, beta=1.0, p_init=0.0),
    dict(E_max=5.0, ramp_time=math.inf, beta=1.0, p_init=0.0),
])
def test_szilard_run_validation(kwargs):
    bad = next(k for k, v in kwargs.items() if v != _STROKE[k])
    with pytest.raises(ValueError, match=bad):
        szilard_run(**kwargs)
    if bad != "p_init":  # the engine cycle runs the same stroke
        with pytest.raises(ValueError, match=bad):
            memory_engine_cycle(MemoryModel(0.1), kwargs["E_max"], kwargs["ramp_time"], 1.0)


def test_slow_stroke_approaches_quasistatic_value():
    ledger = szilard_run(E_max=5.0, ramp_time=400.0, beta=1.0, p_init=0.0)
    ideal = quasistatic_extracted(5.0, 1.0)
    assert abs(ideal - 0.6864319) < 1e-6
    assert abs(ledger.extracted_work - ideal) < 0.02 * ideal
    assert ledger.extracted_work < ideal  # finite speed always dissipates


def test_sudden_stroke_extracts_nothing():
    for p in (0.0, 0.2, 0.5):
        ledger = szilard_run(E_max=5.0, ramp_time=0.0, beta=1.0, p_init=p)
        assert abs(ledger.extracted_work) < 1e-12
        assert abs(ledger.heat) < 1e-12


def test_longer_ramps_extract_more():
    values = [szilard_run(5.0, T, 1.0, 0.0).extracted_work
              for T in (5.0, 25.0, 100.0, 400.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_extraction_never_beats_landauer():
    ideal_cap = LN2
    for T in (0.0, 2.0, 20.0, 150.0, 900.0):
        for p in (0.0, 0.1, 0.3):
            ledger = szilard_run(5.0, T, 1.0, p)
            assert ledger.extracted_work <= ideal_cap * (1.0 + 1e-9)


def test_misread_occupancy_costs_extraction():
    clean = szilard_run(5.0, 200.0, 1.0, 0.0).extracted_work
    noisy = szilard_run(5.0, 200.0, 1.0, 0.25).extracted_work
    # the erroneously occupied fraction pays p * E_max up front
    assert noisy < clean - 1.0


def test_ledger_first_law_and_sign_convention():
    for T, p in ((0.0, 0.0), (1.0, 0.3), (50.0, 0.0), (400.0, 0.1)):
        ledger = szilard_run(5.0, T, 1.0, p)
        assert ledger.first_law_residual() < 1e-8
        assert ledger.extracted_work == -ledger.work
    # units scale as 1/beta: twice the temperature, twice the work
    cold = szilard_run(5.0, 300.0, 1.0, 0.0)
    hot = szilard_run(10.0, 300.0, 0.5, 0.0)  # same beta*E_max
    assert np.isclose(hot.extracted_work, 2.0 * cold.extracted_work, rtol=1e-3)


# ---------------------------------------------------------------------------
# memory register


def test_memory_model_validation():
    with pytest.raises(ValueError, match="unknown memory source"):
        MemoryModel(0.1, source="guess")
    with pytest.raises(ValueError, match="probability"):
        MemoryModel(1.2)
    with pytest.raises(ValueError, match="exceed 1/2"):
        MemoryModel(0.7, source="derived-from-lifetime")
    MemoryModel(0.7)  # an ideal register may be arbitrarily wrong


@pytest.mark.parametrize("bad", ["no", "", 1, 0, None])
def test_stable_must_be_a_bool(bad):
    # "no" is truthy: read as a flag it made a stable register, read out for free
    with pytest.raises(ValueError, match="stable must be a bool"):
        MemoryModel(0.1, stable=bad)
    with pytest.raises(ValueError, match="stable must be a bool"):
        MemoryModel.from_lifetime(1.0, 4.0, stable=bad)
    unstable = memory_engine_cycle(MemoryModel(0.1, stable=False), 5.0, 10.0, 1.0)
    assert memory_engine_cycle(MemoryModel(0.1, stable=np.False_), 5.0, 10.0,
                               1.0).measurement_cost == unstable.measurement_cost > 0.0


def test_memory_from_lifetime():
    assert MemoryModel.from_lifetime(0.0, 10.0).error_probability == 0.0
    assert np.isclose(MemoryModel.from_lifetime(1e6, 1.0).error_probability, 0.5)
    ps = [MemoryModel.from_lifetime(t, 5.0).error_probability
          for t in (0.1, 0.5, 2.0, 10.0)]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    p = MemoryModel.from_lifetime(1.0, 4.0).error_probability
    assert np.isclose(p, 0.5 * (1.0 - math.exp(-0.5)), rtol=1e-14)
    assert MemoryModel.from_lifetime(3.0, math.inf).error_probability == 0.0


@pytest.mark.parametrize("t_cycle,tau,name", [
    (-1.0, 1.0, "t_cycle"), (math.nan, 1.0, "t_cycle"),
    (1.0, 0.0, "tau"), (1.0, -2.0, "tau"), (1.0, math.nan, "tau"),
])
def test_memory_from_lifetime_names_the_bad_argument(t_cycle, tau, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        MemoryModel.from_lifetime(t_cycle, tau)


def test_memory_from_lifetime_rejects_infinite_cycle_and_lifetime():
    # 2 t_cycle / tau is inf / inf: no error probability follows
    with pytest.raises(ValueError, match="^t_cycle and tau cannot both be inf"):
        MemoryModel.from_lifetime(math.inf, math.inf)
    assert MemoryModel.from_lifetime(math.inf, 1.0).error_probability == 0.5


def test_perfect_stable_memory_flags_violation():
    res = memory_engine_cycle(MemoryModel(0.0), 5.0, 400.0, 1.0)
    assert res.measurement_cost == 0.0
    assert res.net_extracted > 0.6
    assert res.violation


def test_unstable_memory_pays_for_measurement():
    res = memory_engine_cycle(MemoryModel(0.0, stable=False), 5.0, 400.0, 1.0)
    assert np.isclose(res.measurement_cost, LN2, rtol=1e-14)
    assert res.net_extracted < 0.0
    assert not res.violation


def test_net_work_monotone_in_error_probability():
    grid = np.linspace(0.0, 0.5, 11)
    nets = [memory_engine_cycle(MemoryModel(p), 5.0, 150.0, 1.0).net_extracted
            for p in grid]
    assert all(b <= a + 1e-12 for a, b in zip(nets, nets[1:]))
    assert nets[0] > 0.6
    assert nets[-1] < 0.0


@pytest.mark.parametrize("kwargs,error", [
    (dict(tol=1e-4), None),
    # a tol below one ulp stops at adjacent floats instead of looping forever
    (dict(tol=1e-300), None),
    (dict(lo=0.4, hi=0.5), "does not change sign"),
    (dict(tol=0.0), "tol"),
    (dict(tol=-1e-4), "tol"),
    (dict(tol=math.nan), "tol"),
    (dict(tol=math.inf), "tol"),
    (dict(lo=0.5, hi=0.0), "lo"),
    (dict(lo=0.25, hi=0.25), "lo"),
    (dict(lo=math.nan), "lo"),
    (dict(hi=math.inf), "hi"),
])
def test_zero_crossing_by_bisection(kwargs, error):
    if error is not None:
        with pytest.raises(ValueError, match=error):
            cycle_zero_crossing(5.0, 150.0, 1.0, **kwargs)
        return
    p_star = cycle_zero_crossing(5.0, 150.0, 1.0, **kwargs)
    assert 0.0 < p_star < 0.5
    below = memory_engine_cycle(MemoryModel(p_star - 0.02), 5.0, 150.0, 1.0)
    above = memory_engine_cycle(MemoryModel(p_star + 0.02), 5.0, 150.0, 1.0)
    assert below.net_extracted > 0.0 > above.net_extracted


# ---------------------------------------------------------------------------
# entropy production


def test_sawtooth_schedule_shape():
    sched = sawtooth_schedule(3, 2.0, 4.0)
    assert len(sched.segments) == 6
    assert sched.t_start == 0.0
    assert sched.t_end == 6.0
    peak = sched.segments[0]
    assert peak.eps1 == (0.0, 4.0)
    assert sched.segments[1].eps1 == (4.0, 0.0)
    assert len(sawtooth_schedule(np.int64(2), 1.0, 2.0).segments) == 4
    for n_periods in (0, -1, 2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="n_periods"):
            sawtooth_schedule(n_periods, 1.0, 2.0)
    for period in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="period"):
            sawtooth_schedule(2, period, 4.0)


def test_undriven_schedule_produces_zero_entropy_pathwise():
    # constant energies + equilibrium start: every flip's ln(r_f/r_b) is
    # cancelled by the boundary terms, trajectory by trajectory
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 30.0, (0.0, 0.0), (1.3, 1.3)),), gamma=1.0, beta=1.0)
    res = entropy_production_samples(sched, n_traj=300, seed=3)
    assert np.abs(res.samples).max() < 1e-12
    assert res.p_negative == 0.0


def test_integral_fluctuation_theorem_fast_ramp():
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 2.0, (0.0, 0.0), (0.0, 3.0)),), gamma=1.0, beta=1.0)
    res = entropy_production_samples(sched, n_traj=3000, seed=11)
    assert res.n_traj == 3000
    assert abs(res.ift_estimate - 1.0) < 4.0 * res.ift_stderr
    assert res.mean_sigma > 0.0  # strictly dissipative on average
    assert 0.0 < res.p_negative < 0.5


def test_mean_entropy_matches_master_equation():
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 1.5, (0.0, 0.0), (0.0, 2.0)),
                  Segment(1.5, 3.0, (0.0, 0.0), (2.0, 0.5)),),
        gamma=1.0, beta=1.0)
    p0 = (0.5, 0.5)
    res = entropy_production_samples(sched, n_traj=4000, seed=7, p0=p0)
    exact = mean_sigma_ode(sched, p0)
    assert abs(res.mean_sigma - exact) < 4.0 * res.mean_stderr


def test_entropy_samples_worker_invariance():
    sched = sawtooth_schedule(2, 1.0, 2.0)
    serial = entropy_production_samples(sched, n_traj=80, seed=5, workers=1)
    parallel = entropy_production_samples(sched, n_traj=80, seed=5, workers=4)
    assert np.array_equal(serial.samples, parallel.samples)


@pytest.mark.parametrize("workers", [2.5, 0, -3, True])
def test_entropy_samples_reject_bad_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        entropy_production_samples(sawtooth_schedule(1, 1.0, 2.0), n_traj=2, workers=workers)


@pytest.mark.parametrize("seed", [2.5, -1, True, [1, 2], "3"])
def test_entropy_samples_reject_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        entropy_production_samples(sawtooth_schedule(1, 1.0, 2.0), n_traj=2, seed=seed)


@pytest.mark.parametrize("kwargs,name", [(dict(seed=-1), "seed"), (dict(workers=0), "workers")])
def test_entropy_samples_check_seed_and_workers_before_the_master_solve(
        monkeypatch, kwargs, name):
    def no_solve(*args, **kw):
        raise AssertionError("the master solve ran before the inputs were checked")

    monkeypatch.setattr("memlab.thermo.integrate_master", no_solve)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        entropy_production_samples(sawtooth_schedule(400, 1.0, 2.0), 2, **kwargs)


def test_metropolis_sampling_also_satisfies_ift():
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 1.0, (0.0, 0.0), (0.0, 2.5)),), gamma=1.0, beta=1.0)
    res = entropy_production_samples(sched, n_traj=3000, seed=19, rates="metropolis")
    assert abs(res.ift_estimate - 1.0) < 4.0 * res.ift_stderr


def test_negative_sigma_rate_falls_with_duration():
    rates = []
    for n_periods in (5, 10, 20):
        sched = sawtooth_schedule(n_periods, 1.0, 2.0)
        res = entropy_production_samples(sched, n_traj=2000, seed=23)
        rates.append(res.p_negative)
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_entropy_sampler_rejects_bad_count():
    sched = sawtooth_schedule(1, 1.0, 1.0)
    with pytest.raises(ValueError, match="n_traj"):
        entropy_production_samples(sched, n_traj=0)
