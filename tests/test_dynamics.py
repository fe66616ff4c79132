"""Event rates, trajectory generation, and first-passage ensembles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memlab import (
    SimulationParams,
    SpinConfiguration,
    build_model,
    classify_flip,
    energy,
    entropy_production_samples,
    first_passage,
    kitaev_memory_lifetime,
    magnetization_nonpositive,
    sawtooth_schedule,
    simulate_trajectory,
    syndrome,
)

import memlab.decoder
import memlab.dynamics
from memlab._shared import BLOCK, flip_rates, triples
from memlab.decoder import decode_matching
from memlab.dynamics import EventClass, _evolve, _sampler, _site_tables

from _oracles import (absorbing_mfpt, heat_bath, mean_field_mfpt, probe_chain_lifetime,
                      reference_evolve)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize("kwargs", [
    dict(beta=-0.1, t_max=1.0),
    dict(beta=1.0, t_max=0.0),
    dict(beta=1.0, t_max=-2.0),
    dict(beta=1.0, t_max=1.0, n_traj=0),
    dict(beta=math.nan, t_max=1.0),
    dict(beta=math.inf, t_max=1.0),
    dict(beta=1.0, t_max=1.0, n_traj=2.5),
    dict(beta=1.0, t_max=1.0, n_traj=True),
    dict(beta=1.0, t_max=1.0, n_traj=3.0),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SimulationParams(**kwargs)


@pytest.mark.parametrize("cadence", [-0.5, 0.0, math.nan, math.inf])
def test_probe_cadence_must_be_finite_and_positive(cadence):
    # a negative cadence never reaches t_max and 0 silently disables probes
    with pytest.raises(ValueError, match="probe_cadence"):
        SimulationParams(beta=0.5, t_max=5.0, probe_cadence=cadence)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -0.5])
def test_classify_flip_rejects_bad_beta(beta):
    model = build_model("Ising1D", N=6)
    with pytest.raises(ValueError, match="^beta must be a finite real number >= 0, got"):
        classify_flip(model, SpinConfiguration.all_up(6), 0, beta)


def test_classify_flip_rejects_bad_site():
    model = build_model("Ising1D", N=6)
    with pytest.raises(ValueError, match="invalid site index"):
        classify_flip(model, SpinConfiguration.all_up(6), 6, 1.0)
    kit = build_model("Kitaev2D", L=3)
    with pytest.raises(ValueError, match="invalid edge index"):
        classify_flip(kit, frozenset(), 18, 1.0)
    with pytest.raises(ValueError, match="invalid edge index"):
        classify_flip(kit, frozenset({30}), 2, 1.0)


# ---------------------------------------------------------------------------
# single-flip rates


def test_ring_flip_rate_from_ordered_state():
    # flipping inside the ordered ring costs 4J, so the heat-bath rate
    # is 1/(1 + e^{4 beta J})
    beta, J = 0.7, 1.0
    model = build_model("Ising1D", N=10, J=J)
    ev = classify_flip(model, SpinConfiguration.all_up(10), 3, beta)
    assert ev.tag == "ising-flip"
    assert ev.site == 3
    assert np.isclose(ev.rate, heat_bath(4.0 * beta * J), rtol=1e-14)


def test_domain_wall_spin_flips_at_rate_half():
    # a spin with one aligned and one anti-aligned neighbour has dE = 0
    model = build_model("Ising1D", N=8)
    spins = np.ones(8, dtype=int)
    spins[4:] = -1
    ev = classify_flip(model, SpinConfiguration(spins), 4, 2.3)
    assert np.isclose(ev.rate, 0.5, rtol=1e-14)


def test_mean_field_rate_uses_global_magnetization():
    beta, J, N = 1.1, 1.0, 12
    model = build_model("IsingMeanField", N=N, J=J)
    spins = np.ones(N, dtype=int)
    spins[:3] = -1  # M = 6
    m = int(spins.sum())
    up = classify_flip(model, SpinConfiguration(spins), 5, beta)     # +1 spin
    down = classify_flip(model, SpinConfiguration(spins), 0, beta)   # -1 spin
    assert np.isclose(up.rate, heat_bath(beta * (2.0 * J / N) * (m - 1)), rtol=1e-14)
    assert np.isclose(down.rate, heat_bath(beta * (2.0 * J / N) * (-m - 1)), rtol=1e-14)


@pytest.mark.parametrize("kind,size_kw", [
    ("Ising1D", dict(N=9)),
    ("Ising2D", dict(L=4)),
    ("IsingMeanField", dict(N=7)),
])
def test_detailed_balance_on_random_states(kind, size_kw):
    """Forward/backward rate ratios must equal the Boltzmann factor."""
    beta = 0.9
    model = build_model(kind, **size_kw)
    rng = np.random.default_rng(42)
    for _ in range(25):
        spins = rng.choice([-1, 1], size=model.N)
        x = SpinConfiguration(spins)
        site = int(rng.integers(model.N))
        flipped = spins.copy()
        flipped[site] = -flipped[site]
        y = SpinConfiguration(flipped)
        fwd = classify_flip(model, x, site, beta).rate
        bwd = classify_flip(model, y, site, beta).rate
        de = energy(model, y) - energy(model, x)
        assert np.isclose(fwd / bwd, math.exp(-beta * de), rtol=1e-10)


def test_kitaev_flip_classes_and_rates():
    beta = 1.3
    model = build_model("Kitaev2D", L=3, move_rate=0.7)
    # no errors anywhere: flipping any edge creates a pair
    ev = classify_flip(model, frozenset(), 5, beta)
    assert ev.tag == "create-pair"
    assert np.isclose(ev.rate, math.exp(-2.0 * beta), rtol=1e-14)
    # flipping the same edge back annihilates the pair at rate 1
    ev = classify_flip(model, frozenset({5}), 5, beta)
    assert ev.tag == "annihilate-pair"
    assert ev.rate == 1.0
    # an edge bordering exactly one excited plaquette moves the anyon
    p1, p2 = model.edge_plaquettes[5]
    neighbour = next(int(e) for e in model.plaquette_edges[p1] if e != 5)
    ev = classify_flip(model, frozenset({5}), neighbour, beta)
    assert ev.tag == "move-anyon"
    assert ev.rate == 0.7


def test_kitaev_rate_ratios_satisfy_detailed_balance():
    # creation/annihilation of an anyon pair changes the energy by 2,
    # so the rate ratio must be e^{-2 beta}; hops are isoenergetic
    beta = 0.85
    model = build_model("Kitaev2D", L=3)
    create = classify_flip(model, frozenset(), 7, beta).rate
    annihilate = classify_flip(model, frozenset({7}), 7, beta).rate
    assert np.isclose(create / annihilate, math.exp(-2.0 * beta), rtol=1e-14)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_is_reproducible():
    model = build_model("Ising1D", N=12)
    params = SimulationParams(beta=0.4, t_max=30.0)
    a = simulate_trajectory(model, params, seed=7)
    b = simulate_trajectory(model, params, seed=7)
    assert len(a.events) == len(b.events)
    for (ta, eva), (tb, evb) in zip(a.events, b.events):
        assert ta == tb
        assert eva == evb
    assert np.array_equal(a.final_state.spins, b.final_state.spins)
    c = simulate_trajectory(model, params, seed=8)
    assert [e for _, e in a.events] != [e for _, e in c.events]


def test_event_times_strictly_increase():
    model = build_model("Ising2D", L=4)
    rec = simulate_trajectory(model, SimulationParams(beta=0.5, t_max=20.0), seed=3)
    times = [t for t, _ in rec.events]
    assert len(times) > 10
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[-1] <= 20.0


def test_event_replay_reproduces_final_spins():
    """The event log applied to the initial state must give final_state."""
    model = build_model("IsingMeanField", N=10)
    rec = simulate_trajectory(model, SimulationParams(beta=0.8, t_max=50.0), seed=11)
    spins = np.ones(10, dtype=np.int8)
    for _, ev in rec.events:
        assert ev.tag == "ising-flip"
        spins[ev.site] = -spins[ev.site]
    assert np.array_equal(spins, rec.final_state.spins)


def test_kitaev_event_replay_and_tags():
    """Tags must match the pre-flip plaquette occupation along the path."""
    model = build_model("Kitaev2D", L=3)
    rec = simulate_trajectory(model, SimulationParams(beta=0.6, t_max=8.0), seed=5)
    assert len(rec.events) > 5
    occ = np.zeros(9, dtype=int)
    err = set()
    for _, ev in rec.events:
        p1, p2 = model.edge_plaquettes[ev.site]
        n_excited = int(occ[p1]) + int(occ[p2])
        expected = {0: "create-pair", 1: "move-anyon", 2: "annihilate-pair"}[n_excited]
        assert ev.tag == expected
        err ^= {ev.site}
        occ[p1] ^= 1
        occ[p2] ^= 1
    assert rec.final_state == frozenset(err)


@pytest.mark.parametrize("kind,size_kw,initial", [
    ("Kitaev2D", dict(L=3), [-1]),
    ("Kitaev2D", dict(L=3), [18]),
    ("Kitaev2D", dict(L=3), SpinConfiguration.all_up(17)),
    ("Ising1D", dict(N=8), [1] * 12),
    ("Ising1D", dict(N=8), [1] * 7 + [0]),
    ("Ising1D", dict(N=8), [1] * 7 + [2]),
    ("IsingMeanField", dict(N=4), SpinConfiguration.all_up(5)),
    ("Ising1D", dict(N=8), [1] * 7 + [-1.5]),
])
def test_initial_state_must_fit_the_model(kind, size_kw, initial):
    model = build_model(kind, **size_kw)
    with pytest.raises(ValueError):
        simulate_trajectory(model, SimulationParams(beta=0.5, t_max=1.0),
                            initial=initial)


def test_kitaev_start_from_spin_configuration():
    # a SpinConfiguration start means the edges whose spin is down
    model = build_model("Kitaev2D", L=3)
    params = SimulationParams(beta=0.6, t_max=4.0, probe_cadence=0.5)
    spins = np.ones(18, dtype=np.int8)
    spins[[2, 11]] = -1
    a = simulate_trajectory(model, params, seed=3, initial=SpinConfiguration(spins))
    b = simulate_trajectory(model, params, seed=3, initial={2, 11})
    assert a.events == b.events and a.probes == b.probes
    assert a.final_state == b.final_state


_SIZES = {"Ising1D": ("N", 2, 10), "IsingMeanField": ("N", 1, 10),
          "Ising2D": ("L", 2, 4), "Kitaev2D": ("L", 2, 4)}


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_SIZES)).flatmap(
           lambda k: st.tuples(st.just(k), st.integers(*_SIZES[k][1:]))),
       beta=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_event_replay_matches_classify_flip_and_probes(case, beta, seed):
    """Replaying a record re-derives every event class and every probe.

    Each event must be what classify_flip gives for its pre-flip state, and
    each probe the magnetization / anyon count of the replayed state, so a
    stale bucket or a stale mean-field rate shows up as a mismatch.
    """
    kind, size = case
    model = build_model(kind, **{_SIZES[kind][0]: size})
    params = SimulationParams(beta=beta, t_max=3.0, probe_cadence=0.25)
    rec = simulate_trajectory(model, params, seed=seed)
    kitaev = kind == "Kitaev2D"
    state = frozenset() if kitaev else SpinConfiguration.all_up(model.N)
    states = [(0.0, state)]
    for t, ev in rec.events:
        assert classify_flip(model, state, ev.site, beta) == ev
        if kitaev:
            state = state ^ {ev.site}
        else:
            spins = state.spins.copy()
            spins[ev.site] = -spins[ev.site]
            state = SpinConfiguration(spins)
        states.append((t, state))
    for t_probe, value in rec.probes:
        seen = [s for t, s in states if t < t_probe][-1]
        expected = (len(syndrome(model, seen).anyons) if kitaev
                    else int(seen.spins.sum()))
        assert value == expected
    if kitaev:
        assert rec.final_state == state
    else:
        assert np.array_equal(rec.final_state.spins, state.spins)


# ---------------------------------------------------------------------------
# the draw rule


def _assert_buckets(sampler):
    """Sorted buckets that partition the sites, each site under its key, and
    ``classes`` that pair each bucket with its rate in key order."""
    seen = []
    for k, sites in sampler.members.items():
        assert sites == sorted(set(sites))
        assert all(sampler.key(i) == k == sampler.key_of[i] for i in sites)
        seen += sites
    assert sorted(seen) == list(range(sampler.model.N))
    rates = flip_rates(sampler.model, sampler.beta, sampler.obs)
    assert sampler.classes == tuple((sampler.members[k], rates[k]) for k in sampler.keys)
    assert all(lst is sampler.members[k] for (lst, _), k in zip(sampler.classes, sampler.keys))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_SIZES)).flatmap(
           lambda k: st.tuples(st.just(k), st.integers(*_SIZES[k][1:]))),
       tape=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     max_size=30))
def test_buckets_stay_sorted_under_flips(case, tape):
    """After every event of the loop the buckets match a recompute of every
    key, also where a neighbour is listed twice (N = 2, L = 2)."""
    kind, size = case
    model = build_model(kind, **{_SIZES[kind][0]: size})
    sampler = _sampler(model, 0.7)
    _assert_buckets(sampler)
    events = []

    def stop():
        _assert_buckets(sampler)
        events.append(None)
        return len(events) == len(tape)

    if tape:
        _evolve(sampler, iter(tape), math.inf, stop=stop)
    assert len(events) == len(tape)


@pytest.mark.parametrize("kind,size", [("Ising1D", 2), ("Ising1D", 7), ("IsingMeanField", 1),
                                       ("IsingMeanField", 6), ("Ising2D", 2), ("Ising2D", 3),
                                       ("Kitaev2D", 2), ("Kitaev2D", 3)])
def test_default_start_equals_a_site_by_site_build(kind, size):
    """The default start fills every class from one key; an explicit clean
    start builds them site by site, and both give the same sampler."""
    model = build_model(kind, **{_SIZES[kind][0]: size})
    clean = [] if kind == "Kitaev2D" else [1] * model.N
    fast, slow = _sampler(model, 0.9), _sampler(model, 0.9, clean)
    _assert_buckets(fast)
    _assert_buckets(slow)
    assert (fast.key_of, fast.members, fast.classes) == (slow.key_of, slow.members, slow.classes)
    if kind == "IsingMeanField":  # the start table is cached, and found on a return to M
        assert fast.tables == {model.N: fast.classes}
        start = fast.classes
        for _ in range(2):
            fast.flip(0)
        assert fast.classes is start


def _draw(model, beta, spins, e, u1, u2):
    """(time, site, rate) of one event of the loop from ``spins``, which
    reads exactly one triple."""
    tape, seen = iter([(e, u1, u2)]), []
    _evolve(_sampler(model, beta, spins), tape, math.inf,
            on_event=lambda *event: seen.append(event), stop=lambda: True)
    assert next(tape, None) is None
    (event,) = seen
    return event


def test_draw_reads_one_triple_by_the_rule():
    # ring of 8 with spins 3 and 4 down: sites 2-5 sit on a domain wall
    # (class 0), sites 0, 1, 6, 7 are aligned (class 2), class -2 is empty
    model = build_model("Ising1D", N=8)
    spins = [1, 1, 1, -1, -1, 1, 1, 1]
    sampler = _sampler(model, 0.8, spins)
    assert sampler.members == {-2: [], 0: [2, 3, 4, 5], 2: [0, 1, 6, 7]}
    rates = flip_rates(model, 0.8)
    total = 0.0
    for k in (-2, 0, 2):
        total += len(sampler.members[k]) * rates[k]
    assert _draw(model, 0.8, spins, 1.5, 0.0, 0.0) == (1.5 / total, 2, rates[0])
    assert _draw(model, 0.8, spins, 0.3, 0.99, 0.3) == (0.3 / total, 1, rates[2])

    # at beta = 0 every rate is 1/2, so total = 4 and the class-0 weight is 2
    # the running sum must exceed u1 * total: equality moves on a class
    assert _draw(model, 0.0, spins, 1.0, 0.5, 0.5) == (0.25, 6, 0.5)
    assert _draw(model, 0.0, spins, 1.0, 0.4999, 0.5) == (0.25, 4, 0.5)
    assert _draw(model, 0.0, spins, 1.0, 0.25, 0.7499) == (0.25, 4, 0.5)
    assert _draw(model, 0.0, spins, 1.0, 0.25, 0.75) == (0.25, 5, 0.5)
    # u1 * total == total: the last class of positive weight; u2 * n == n:
    # its last member
    assert _draw(model, 0.0, spins, 1.0, 1.0, 1.0) == (0.25, 7, 0.5)
    # a frozen sampler reads nothing from the tape
    assert _evolve(_sampler(model, 800.0), iter([]), 2.0) == (2.0, True)


_KITAEV_TAGS = {0: "create-pair", 1: "move-anyon", 2: "annihilate-pair"}


def _three_errors(errors):
    return len(errors) >= 3


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_SIZES)).flatmap(
           lambda k: st.tuples(st.just(k), st.integers(*_SIZES[k][1:]))),
       beta=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1),
       cadence=st.sampled_from([None, 0.25, 0.7]))
def test_loop_matches_the_reference_loop(case, beta, seed, cadence):
    """The event loop against a one-trajectory oracle that rebuilds every
    bucket after each flip: records and first-passage times by ``==``.

    The stream goldens fix one size per kind; this reaches the lattices
    where a neighbour is listed twice (N = 2, L = 2).
    """
    kind, size = case
    model = build_model(kind, **{_SIZES[kind][0]: size})
    rec = simulate_trajectory(model, SimulationParams(beta, 3.0, probe_cadence=cadence), seed=seed)
    events, probes, state, _, _ = reference_evolve(
        model, beta, triples(np.random.default_rng(seed)), 3.0, cadence)
    tags = _KITAEV_TAGS if kind == "Kitaev2D" else dict.fromkeys(range(-4, 5), "ising-flip")
    assert rec.events == [(t, EventClass(tags[k], site, rate)) for t, site, rate, k in events]
    assert rec.probes == probes
    if kind == "Kitaev2D":
        assert rec.final_state == state
    else:
        assert rec.final_state.spins.tolist() == state.tolist()

    predicate = _three_errors if kind == "Kitaev2D" else magnetization_nonpositive
    params = SimulationParams(beta, 20.0, n_traj=3)
    res = first_passage(model, params, predicate=predicate, seed=seed)
    runs = [reference_evolve(model, beta, triples(np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i,)))), 20.0, predicate=predicate)
            for i in range(3)]
    assert res.times.tolist() == [end for _, _, _, end, _ in runs]
    assert res.censored == sum(censored for *_, censored in runs)


def test_tape_reads_blocks_of_exponentials_then_uniform_pairs():
    ss = np.random.SeedSequence(99, spawn_key=(4,))
    tape = triples(np.random.default_rng(ss))
    rng = np.random.default_rng(ss)
    for _ in range(3):
        exps = rng.standard_exponential(BLOCK).tolist()
        unis = rng.random((BLOCK, 2)).tolist()
        for e, (u1, u2) in zip(exps, unis):
            assert next(tape) == (e, u1, u2)


def test_probe_cadence_grid():
    # at beta = 40 the ordered ring is frozen on any human timescale, so the
    # probes just sample the initial magnetization on the cadence grid
    model = build_model("Ising1D", N=8)
    params = SimulationParams(beta=40.0, t_max=1.0, probe_cadence=0.25)
    rec = simulate_trajectory(model, params, seed=0)
    assert rec.events == []
    assert [t for t, _ in rec.probes] == [0.25, 0.5, 0.75, 1.0]
    assert all(v == 8.0 for _, v in rec.probes)


def test_kitaev_probes_track_anyon_count():
    model = build_model("Kitaev2D", L=3)
    params = SimulationParams(beta=0.5, t_max=6.0, probe_cadence=0.5)
    rec = simulate_trajectory(model, params, seed=2)
    assert len(rec.probes) == 12
    for _, count in rec.probes:
        assert count == int(count)
        assert 0 <= count <= 9
        assert int(count) % 2 == 0


@pytest.mark.parametrize("decoder", ["matching", "bare"])
def test_kitaev_lifetime_at_large_beta_is_censored(decoder):
    # e^{2 beta} of the default cadence e^{2 beta} / (4 L^2) is beyond float
    # range; the cadence saturates to +inf, so no probe comes before t_max
    res = kitaev_memory_lifetime(3, SimulationParams(beta=400.0, t_max=5.0, n_traj=3),
                                 decoder=decoder)
    assert res.mean == 5.0
    assert res.censored == res.n_traj == 3
    with pytest.raises(RuntimeError, match="absorbing state"):
        kitaev_memory_lifetime(3, SimulationParams(beta=400.0, t_max=math.inf),
                               decoder=decoder)


@pytest.mark.parametrize("decoder", ["matching", "bare"])
def test_kitaev_lifetime_without_probe_or_horizon_raises(decoder):
    # at beta = 360 the creation rate is subnormal but nonzero: the waiting
    # time overflows to inf, and with t_max = inf the run could never end
    with pytest.raises(RuntimeError, match="absorbing state"):
        kitaev_memory_lifetime(3, SimulationParams(beta=360.0, t_max=math.inf),
                               decoder=decoder)


def test_absorbing_state_with_infinite_horizon_raises_before_any_probe():
    # the probes up to the largest float would never end
    params = SimulationParams(beta=500.0, t_max=math.inf, probe_cadence=1.0)
    with pytest.raises(RuntimeError, match="absorbing state"):
        kitaev_memory_lifetime(3, params, decoder="bare")


def test_absorbing_state_with_infinite_horizon_raises():
    # at beta = 500 the pair-creation rate underflows to exactly zero, so a
    # clean lattice can never leave its state
    model = build_model("Kitaev2D", L=2)
    params = SimulationParams(beta=500.0, t_max=math.inf)
    with pytest.raises(RuntimeError, match="absorbing state"):
        first_passage(model, params, predicate=bool, seed=0)


@pytest.mark.parametrize("kind,size", [("Ising1D", dict(N=4)), ("Kitaev2D", dict(L=2))])
def test_recording_needs_a_finite_horizon(kind, size, monkeypatch):
    """A recording has no stop rule, so t_max = inf is refused before a
    sampler is built (it would otherwise record events forever)."""
    model = build_model(kind, **size)

    def no_sampler(*args):
        raise AssertionError("a sampler was built")

    monkeypatch.setattr(memlab.dynamics, "_sampler", no_sampler)
    with pytest.raises(ValueError, match="t_max"):
        simulate_trajectory(model, SimulationParams(1.0, math.inf), seed=1)


# ---------------------------------------------------------------------------
# first passage


def test_magnetization_predicate():
    assert not magnetization_nonpositive(np.array([1, 1, 1]))
    assert magnetization_nonpositive(np.array([1, -1, -1]))
    assert magnetization_nonpositive(np.array([1, -1]))  # zero counts as left


def test_single_spin_escape_time():
    """One free spin flips at rate 1/2, so the mean first-passage time is 2."""
    model = build_model("IsingMeanField", N=1)
    params = SimulationParams(beta=1.0, t_max=200.0, n_traj=4000)
    res = first_passage(model, params, seed=123)
    assert res.censored == 0
    assert abs(res.mean - 2.0) < 4.0 * res.stderr
    assert np.isclose(res.stderr, 2.0 / math.sqrt(4000), rtol=0.1)


def test_first_passage_worker_invariance():
    model = build_model("Ising1D", N=8)
    params = SimulationParams(beta=0.8, t_max=500.0, n_traj=40)
    serial = first_passage(model, params, seed=77, workers=1)
    parallel = first_passage(model, params, seed=77, workers=4)
    assert np.array_equal(serial.times, parallel.times)
    assert serial.mean == parallel.mean


def test_one_at_a_time_ensembles_cross_the_1024_tape_list():
    """1030 ring trajectories reach the event loop in lists of 1024 and 6 tapes
    at one worker, and of 343, 343 and 344 at three: no trajectory moves."""
    model = build_model("Ising1D", N=4)
    params = SimulationParams(beta=0.5, t_max=50.0, n_traj=1030)
    times = first_passage(model, params, seed=21).times.tolist()
    for k in (1, 1024, 1025):
        head = first_passage(model, SimulationParams(0.5, 50.0, n_traj=k), seed=21)
        assert head.times.tolist() == times[:k]
    assert first_passage(model, params, seed=21, workers=3).times.tolist() == times


@pytest.mark.parametrize("workers", [2.5, 0, -3, True])
def test_first_passage_rejects_bad_workers(workers):
    params = SimulationParams(beta=1.0, t_max=1.0, n_traj=2)
    with pytest.raises(ValueError, match="workers"):
        first_passage(build_model("Ising1D", N=4), params, seed=0, workers=workers)


@pytest.mark.parametrize("kind", ["IsingMeanField", "Ising1D"])
def test_first_passage_rejects_a_probe_cadence(kind):
    """First passage never probes, so a cadence would be silently ignored."""
    params = SimulationParams(beta=1.0, t_max=1.0, n_traj=2, probe_cadence=0.5)
    with pytest.raises(ValueError, match="probe_cadence"):
        first_passage(build_model(kind, N=4), params, seed=0)


def test_first_passage_rejects_satisfied_predicate():
    model = build_model("IsingMeanField", N=4)
    params = SimulationParams(beta=1.0, t_max=1.0)
    with pytest.raises(ValueError, match="already true"):
        first_passage(model, params, predicate=lambda s: True, seed=0)


@pytest.mark.parametrize("kind,size_kw,beta,n_traj,exact", [
    ("Ising1D", dict(N=8), 1.0, 2000, 30.0020),
    ("Ising2D", dict(L=3), 0.5, 1000, 116.9708),
    ("IsingMeanField", dict(N=10), 1.2, 2000, 8.8270),
])
def test_first_passage_matches_absorbing_chain(kind, size_kw, beta, n_traj, exact):
    """The sampled lifetime is the exact mean first-passage time of the
    generator, restricted to the states with M > 0."""
    model = build_model(kind, **size_kw)
    tau = absorbing_mfpt(model, beta)
    assert abs(tau - exact) < 1e-4
    if kind == "IsingMeanField":
        assert abs(tau - mean_field_mfpt(model.N, beta, model.J)) < 1e-9
    res = first_passage(model, SimulationParams(beta=beta, t_max=1e7, n_traj=n_traj),
                        seed=2024)
    assert res.censored == 0
    assert abs(res.mean - tau) < 4.0 * res.stderr


def test_kitaev_first_passage_needs_a_predicate():
    model = build_model("Kitaev2D", L=3)
    params = SimulationParams(beta=1.0, t_max=10.0)
    with pytest.raises(ValueError, match="Kitaev2D needs an explicit predicate"):
        first_passage(model, params)


def test_censoring_counts_and_lower_bound():
    # a cold ordered ring essentially never flips within t_max = 0.01
    model = build_model("Ising1D", N=16)
    params = SimulationParams(beta=6.0, t_max=0.01, n_traj=25)
    res = first_passage(model, params, seed=9)
    assert res.censored == 25
    assert res.mean == 0.01
    assert res.stderr == 0.0


def test_a_failure_at_the_last_probe_is_not_censored():
    """Probes at t = 1, 2, 3, 4 = t_max.  A longer horizon replays the same
    trajectories: 37 of them fail at the probe at exactly t = 4.0 and 32 run
    past it, so only those 32 are censored at t_max = 4."""
    params = dict(beta=0.3, n_traj=400, probe_cadence=1.0)
    res = kitaev_memory_lifetime(3, SimulationParams(t_max=4.0, **params), decoder="bare",
                                 seed=3)
    longer = kitaev_memory_lifetime(3, SimulationParams(t_max=4.5, **params),
                                    decoder="bare", seed=3)
    assert int(np.sum(longer.times == 4.0)) == 37
    assert res.censored == longer.censored == 32
    assert res.times.tolist() == np.minimum(longer.times, 4.0).tolist()
    assert res.mean == 1.9825


def test_custom_predicate_any_error():
    model = build_model("Kitaev2D", L=2)
    params = SimulationParams(beta=1.0, t_max=100.0, n_traj=200)
    res = first_passage(model, params, predicate=lambda err: len(err) > 0, seed=4)
    # 8 edges each creating pairs at e^{-2}: mean wait 1/(8 e^{-2}) = e^2/8
    expected = math.exp(2.0) / 8.0
    assert res.censored == 0
    assert abs(res.mean - expected) < 4.0 * res.stderr


# ---------------------------------------------------------------------------
# encoded-memory lifetime


def test_kitaev_lifetime_smoke():
    params = SimulationParams(beta=0.7, t_max=30.0, n_traj=30, probe_cadence=0.5)
    res = kitaev_memory_lifetime(3, params, seed=21)
    assert res.n_traj == 30
    assert len(res.times) == 30
    assert 0.0 < res.mean <= 30.0
    assert all(t in np.arange(0.5, 30.5, 0.5) or t == 30.0 for t in res.times)


@pytest.mark.parametrize("kind", sorted(_SIZES))
def test_site_tables_are_shared_tuples(kind):
    """Samplers of equal models read one set of read-only tables, built once."""
    size = {_SIZES[kind][0]: 3}
    a = _sampler(build_model(kind, **size), 0.5)
    b = _sampler(build_model(kind, **size), 1.5)
    geometry = _site_tables(build_model(kind, **size))
    assert a.geometry is b.geometry is geometry
    if geometry is not None:
        assert type(geometry) is tuple and all(type(row) is tuple for row in geometry)


def test_kitaev_lifetime_repeats_in_one_process():
    """The per-process tables and decoder caches carry no state between runs:
    a repeat call, also after one on another model, gives the same result."""
    params = SimulationParams(beta=1.0, t_max=20.0, n_traj=12)

    def run(**kw):
        res = kitaev_memory_lifetime(4, params, seed=5, **kw)
        return res.mean, res.stderr, res.n_traj, res.censored, res.times.tolist()

    first = run()
    run(move_rate=0.5)
    assert run() == first


def test_matching_outlives_bare_readout_on_average():
    # on a cold enough lattice the bare loop parity flips as soon as a pair
    # straddles the tracked cycle, while the decoded readout only fails once
    # an anyon has wandered halfway around the torus or the pairing is wrong
    params = SimulationParams(beta=1.5, t_max=3000.0, n_traj=80)
    bare = kitaev_memory_lifetime(8, params, decoder="bare", seed=21)
    dressed = kitaev_memory_lifetime(8, params, decoder="matching", seed=21)
    assert bare.n_traj == dressed.n_traj == 80
    assert bare.censored == dressed.censored == 0
    assert dressed.mean > bare.mean


@pytest.mark.parametrize("L,beta,decoder,exact", [
    (2, 1.0, "bare", 2.3341),
    (2, 1.0, "matching", 2.3341),
    (3, 1.0, "bare", 1.2410),
    (3, 1.0, "matching", 1.3134),
    (3, 1.5, "matching", 3.0199),
])
def test_kitaev_lifetime_matches_the_probe_chain(L, beta, decoder, exact):
    """The sampled lifetime is the exact mean failure time of the trivial
    star block's chain, probed at the default cadence (ROADMAP item 2)."""
    t_max = 1e6
    lifetime = probe_chain_lifetime(L, beta, decoder, t_max)
    assert abs(lifetime - exact) < 1e-4
    res = kitaev_memory_lifetime(L, SimulationParams(beta=beta, t_max=t_max, n_traj=4000),
                                 decoder=decoder, seed=1)
    assert res.censored == 0
    assert abs(res.mean - lifetime) < 4.0 * res.stderr


def test_kitaev_lifetime_worker_invariance():
    params = SimulationParams(beta=0.7, t_max=10.0, n_traj=12, probe_cadence=0.5)
    serial = kitaev_memory_lifetime(3, params, seed=5, workers=1)
    parallel = kitaev_memory_lifetime(3, params, seed=5, workers=3)
    assert np.array_equal(serial.times, parallel.times)


@pytest.mark.parametrize("workers", [2.5, 0, -3, True])
def test_kitaev_lifetime_rejects_bad_workers(workers):
    params = SimulationParams(beta=0.7, t_max=1.0, n_traj=2)
    with pytest.raises(ValueError, match="workers"):
        kitaev_memory_lifetime(3, params, seed=0, workers=workers)


def test_decode_matching_passed_as_a_callable_equals_matching():
    params = SimulationParams(beta=1.0, t_max=300.0, n_traj=8)
    named = kitaev_memory_lifetime(4, params, decoder="matching", seed=13)
    passed = kitaev_memory_lifetime(4, params, decoder=decode_matching, seed=13)
    assert passed.times.tolist() == named.times.tolist()


def _broken_decoder(syn, L):
    raise KeyError("no pairing")


def test_failing_decoder_names_time_and_syndrome():
    params = SimulationParams(beta=0.5, t_max=50.0, n_traj=1, probe_cadence=0.5)
    with pytest.raises(RuntimeError, match=r"decoder failed at t=0\.5 on syndrome") as info:
        kitaev_memory_lifetime(3, params, decoder=_broken_decoder, seed=0)
    assert isinstance(info.value.__cause__, KeyError)


def _wrong_size_decoder(syn, L):
    return memlab.decoder.Correction([], 7)


def _not_a_correction_decoder(syn, L):
    return frozenset()


@pytest.mark.parametrize("decoder,cause", [(_wrong_size_decoder, ValueError),
                                           (_not_a_correction_decoder, AttributeError)])
def test_bad_correction_names_time_and_syndrome(decoder, cause):
    """A custom decoder's answer is checked like its call: a Correction of
    another lattice size, or no Correction at all, fails the probe."""
    params = SimulationParams(beta=0.5, t_max=50.0, n_traj=1, probe_cadence=0.5)
    with pytest.raises(RuntimeError, match=r"decoder failed at t=0\.5 on syndrome") as info:
        kitaev_memory_lifetime(3, params, decoder=decoder, seed=0)
    assert isinstance(info.value.__cause__, cause)
    if cause is ValueError:
        assert "L=7" in str(info.value.__cause__)


def test_matching_is_looked_up_on_the_decoder_module(monkeypatch):
    # "matching" takes the same call path as a callable, through the module
    # attribute, so a wrapper put there sees every decode
    monkeypatch.setattr(memlab.decoder, "decode_matching", _broken_decoder)
    params = SimulationParams(beta=0.5, t_max=50.0, n_traj=1, probe_cadence=0.5)
    with pytest.raises(RuntimeError, match="decoder failed at t=") as info:
        kitaev_memory_lifetime(3, params, decoder="matching", seed=0)
    assert isinstance(info.value.__cause__, KeyError)


_BAD_SEEDS = [2.5, -1, True, [1, 2], "3"]


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_simulate_trajectory_rejects_bad_seed(seed):
    params = SimulationParams(beta=1.0, t_max=1.0)
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        simulate_trajectory(build_model("Ising1D", N=4), params, seed=seed)


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_first_passage_rejects_bad_seed(seed):
    params = SimulationParams(beta=1.0, t_max=1.0, n_traj=2)
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        first_passage(build_model("Ising1D", N=4), params, seed=seed)


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_kitaev_lifetime_rejects_bad_seed(seed):
    params = SimulationParams(beta=0.7, t_max=1.0, n_traj=2)
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        kitaev_memory_lifetime(3, params, seed=seed)


def test_numpy_integer_seeds_equal_python_ints():
    model = build_model("Ising1D", N=6)
    params = SimulationParams(beta=0.5, t_max=5.0, n_traj=3, probe_cadence=1.0)
    a = simulate_trajectory(model, params, seed=np.uint32(7))
    b = simulate_trajectory(model, params, seed=7)
    assert type(a.seed) is int and a.seed == b.seed == 7
    assert a.events == b.events and a.probes == b.probes
    params = SimulationParams(beta=0.5, t_max=5.0, n_traj=3)
    assert (first_passage(model, params, seed=np.int64(4)).times.tolist()
            == first_passage(model, params, seed=4).times.tolist())
    # the tapes split a seed into 32-bit words: a numpy seed must reach them as an int
    params = SimulationParams(beta=0.7, t_max=3.0, n_traj=3)
    schedule = sawtooth_schedule(2, 1.0, 2.0)
    for seed in (np.int64(2**62 + 9), np.uint64(2**64 - 3)):
        assert (kitaev_memory_lifetime(3, params, seed=seed).times.tolist()
                == kitaev_memory_lifetime(3, params, seed=int(seed)).times.tolist())
        assert (entropy_production_samples(schedule, 5, seed=seed).samples.tolist()
                == entropy_production_samples(schedule, 5, seed=int(seed)).samples.tolist())


def test_unknown_decoder_rejected():
    params = SimulationParams(beta=0.7, t_max=1.0)
    for decoder in ("fancy", np.array(["matching", "bare"])):
        with pytest.raises(ValueError, match="unknown decoder"):
            kitaev_memory_lifetime(3, params, decoder=decoder)


def test_none_is_not_a_decoder_alias():
    params = SimulationParams(beta=0.7, t_max=1.0)
    with pytest.raises(ValueError, match="unknown decoder: None"):
        kitaev_memory_lifetime(3, params, decoder=None)
