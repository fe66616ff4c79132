"""Exact generators, stationary states, gaps, and the driven two-level solver."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from memlab import (
    GeneratorMatrix,
    Jump,
    ProtocolSchedule,
    Segment,
    SpinConfiguration,
    build_generator,
    build_model,
    classify_flip,
    integrate_master,
    spectral_gap,
    stationary_distribution,
    two_level_rates,
)
from memlab import exact
from memlab.exact import StarBlocks
from memlab.lattice import energy

from _oracles import boltzmann, heat_bath, relax_p1, translation_orbit_gap


def _spins_of(x, n):
    """Decode basis-state index x: bit i clear means spin i is up."""
    return np.array([1 - 2 * ((x >> i) & 1) for i in range(n)], dtype=np.int8)


# ---------------------------------------------------------------------------
# generator construction


def test_generator_matches_loop_built_reference():
    """Vectorized assembly must agree with a naive per-entry construction."""
    beta = 0.8
    for kind, kw in [("Ising1D", dict(N=4)), ("Ising1D", dict(N=2)),
                     ("Ising1D", dict(N=3)), ("Ising2D", dict(L=2))]:
        model = build_model(kind, **kw)
        G = build_generator(model, beta)
        n = model.N
        dim = 1 << n
        ref = np.zeros((dim, dim))
        for x in range(dim):
            sx = _spins_of(x, n)
            ex = energy(model, SpinConfiguration(sx))
            for i in range(n):
                y = x ^ (1 << i)
                sy = _spins_of(y, n)
                ey = energy(model, SpinConfiguration(sy))
                ref[y, x] = heat_bath(beta * (ey - ex))
            ref[x, x] = 0.0
        ref -= np.diag(ref.sum(axis=0))
        assert np.allclose(G.matrix.toarray(), ref, atol=1e-13)
        states = [energy(model, SpinConfiguration(_spins_of(x, n))) for x in range(dim)]
        assert np.allclose(G.energies, states, atol=1e-13)


def _single_flip_rates(model, beta, state_of):
    """Off-diagonal generator built entry by entry from ``classify_flip``."""
    n = model.N
    ref = np.zeros((1 << n, 1 << n))
    for x in range(1 << n):
        for i in range(n):
            ref[x ^ (1 << i), x] = classify_flip(model, state_of(x), i, beta).rate
    return ref


def _off_diagonal(G):
    M = G.matrix.toarray()
    np.fill_diagonal(M, 0.0)
    return M


def test_generator_entries_equal_simulation_rates():
    """The exact generator and the Monte Carlo rate classes are one arithmetic:
    every off-diagonal entry equals the sampler's rate bit for bit."""
    for beta in (0.2, 0.7, 1.1, 1.3, 2.5):
        for J in (1.0, 0.7):
            for kind, kw in [("Ising1D", dict(N=4)), ("Ising1D", dict(N=6)),
                             ("Ising2D", dict(L=2)), ("IsingMeanField", dict(N=5))]:
                model = build_model(kind, J=J, **kw)
                ref = _single_flip_rates(
                    model, beta, lambda x: SpinConfiguration(_spins_of(x, model.N)))
                G = build_generator(model, beta)
                assert np.array_equal(_off_diagonal(G), ref), (kind, kw, beta, J)


def test_kitaev_generator_entries_equal_simulation_rates():
    for beta in (0.2, 0.9, 2.5):
        for move_rate in (0.6, 1.0):
            model = build_model("Kitaev2D", L=2, move_rate=move_rate)
            ref = _single_flip_rates(
                model, beta, lambda x: frozenset(k for k in range(8) if (x >> k) & 1))
            G = build_generator(model, beta)
            assert np.array_equal(_off_diagonal(G), ref), (beta, move_rate)


def test_two_spin_ring_has_doubled_bond_energies():
    model = build_model("Ising1D", N=2)
    G = build_generator(model, 1.0)
    assert np.array_equal(G.energies, [-2.0, 2.0, 2.0, -2.0])


def test_kitaev_energies_count_anyons():
    model = build_model("Kitaev2D", L=2)
    G = build_generator(model, 1.0)
    assert G.energies[0] == 0.0
    # a single edge error excites its two plaquettes
    assert G.energies[1 << 3] == 2.0
    assert G.energies.max() == 4.0  # at most all four plaquettes
    assert np.all(G.energies % 2 == 0)


@pytest.mark.parametrize("kind,kw,dim", [
    ("IsingMeanField", dict(N=6), 64),
    ("Kitaev2D", dict(L=2), 256),
    ("Ising1D", dict(N=8), exact.DENSE_LIMIT // 2),  # the last size that LAPACK solves
    ("Ising1D", dict(N=9), exact.DENSE_LIMIT),       # the first that eigsh solves
])
def test_columns_sum_to_zero(kind, kw, dim):
    """Every generator is one CSR matrix, on both sides of the eigensolver limit."""
    G = build_generator(build_model(kind, **kw), 0.7)
    assert sp.issparse(G.matrix) and G.matrix.format == "csr"
    assert G.dimension == G.matrix.shape[0] == dim
    assert np.abs(np.asarray(G.matrix.sum(axis=0))).max() < 1e-12


def test_generator_equality_is_identity():
    model = build_model("Ising1D", N=4)
    G, H = build_generator(model, 1.0), build_generator(model, 1.0)
    assert G == G and G != H
    assert {G, H, G} == {G, H}
    K = build_generator(build_model("Kitaev2D", L=2), 1.0)
    assert K == K and hash(K) == hash(K)
    assert "matrix" not in vars(K)
    assert repr(G) == "GeneratorMatrix(beta=1.0, kind='Ising1D', size=4)"


def test_hand_built_generator_is_checked():
    G = build_generator(build_model("Ising1D", N=3), 1.0)
    for matrix in (G.matrix.toarray(), sp.csc_matrix(G.matrix), G.matrix[:, :4]):
        with pytest.raises(ValueError, match="^matrix must be a square CSR matrix"):
            GeneratorMatrix(matrix, G.energies, G.beta, G.kind, G.size)
    for energies in (G.energies[:-1], G.energies[:, None]):
        with pytest.raises(ValueError, match=r"^energies must have shape \(8,\)"):
            GeneratorMatrix(G.matrix, energies, G.beta, G.kind, G.size)
    same = GeneratorMatrix(sp.csr_array(G.matrix), G.energies, G.beta, G.kind, G.size)
    assert spectral_gap(same) == spectral_gap(G)


@pytest.mark.parametrize("kind,kw", [("Ising1D", dict(N=4)), ("Kitaev2D", dict(L=2))])
@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_rejected(kind, kw, beta):
    with pytest.raises(ValueError, match="beta"):
        build_generator(build_model(kind, **kw), beta)


def test_state_space_cap():
    with pytest.raises(ValueError, match="2\\^20"):
        build_generator(build_model("Ising1D", N=21), 1.0)
    with pytest.raises(ValueError, match="2\\^20"):
        build_generator(build_model("Kitaev2D", L=4), 1.0)


# ---------------------------------------------------------------------------
# stationarity, detailed balance, gaps


@pytest.mark.parametrize("kind,kw", [
    ("Ising1D", dict(N=5)),
    ("Ising2D", dict(L=2)),
    ("IsingMeanField", dict(N=6)),
    ("Kitaev2D", dict(L=2)),
    ("Ising1D", dict(N=9)),           # 512 states: eigsh from sqrt(Gibbs)
    ("IsingMeanField", dict(N=10)),   # 1024 states
])
def test_stationary_distribution_is_gibbs(kind, kw):
    model = build_model(kind, **kw)
    G = build_generator(model, 1.3)
    pi = stationary_distribution(G)
    ref = boltzmann(G.energies, 1.3)
    assert np.abs(pi - ref).max() < 1e-10
    assert np.isclose(pi.sum(), 1.0, atol=1e-14)


@pytest.mark.parametrize("beta", [2.0, 2.5])
def test_stationary_distribution_is_gibbs_at_low_temperature(beta):
    """The two Ising2D ground states are nearly degenerate top modes; the law
    must still be Gibbs, not a mix of them."""
    G = build_generator(build_model("Ising2D", L=3), beta)
    pi = stationary_distribution(G)
    assert np.abs(pi - boltzmann(G.energies, beta)).max() < 1e-10


def test_stationary_distribution_rejects_a_leaking_generator():
    model = build_model("Ising1D", N=3)
    G = build_generator(model, 1.0)
    M = G.matrix.toarray()
    M[0, 0] -= 0.5  # column 0 no longer sums to zero; still Gibbs-symmetric
    bad = GeneratorMatrix(sp.csr_matrix(M), G.energies, G.beta, G.kind, G.size)
    with pytest.raises(RuntimeError, match="not stationary"):
        stationary_distribution(bad)


def test_detailed_balance_identity():
    """rate(x->y) pi(x) = rate(y->x) pi(y) on every transition."""
    for kind, kw in [("Ising1D", dict(N=6)), ("Kitaev2D", dict(L=2))]:
        model = build_model(kind, **kw)
        beta = 0.9
        G = build_generator(model, beta)
        pi = G.gibbs()
        flux = G.matrix.toarray() * pi[None, :]
        off = ~np.eye(len(pi), dtype=bool)
        scale = flux[off].max()
        assert np.abs(flux - flux.T)[off].max() < 1e-14 * scale


def test_single_spin_generator_and_gap():
    # one free spin: flip rate 1/2 both ways, eigenvalues {0, -1}
    model = build_model("IsingMeanField", N=1)
    G = build_generator(model, 2.0)
    assert np.allclose(G.matrix.toarray(), [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)
    assert np.isclose(spectral_gap(G), 1.0, atol=1e-12)


def test_gap_agrees_with_direct_eigenvalues():
    # 16 states take LAPACK, 512 and 1024 states eigsh
    for kind, N in [("Ising1D", 4), ("Ising1D", 9), ("IsingMeanField", 10)]:
        G = build_generator(build_model(kind, N=N), 0.8)
        w = np.sort(np.linalg.eigvals(G.matrix.toarray()).real)
        assert np.isclose(spectral_gap(G), -w[-2], atol=1e-10), (kind, N)


@pytest.mark.parametrize("n", [exact.DENSE_LIMIT - 1, exact.DENSE_LIMIT])
def test_top_eigen_on_both_sides_of_the_dense_limit(n):
    """LAPACK below the limit and eigsh at it give the same top eigenvalues."""
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    S = sp.csr_matrix(A + A.T)
    ref = np.linalg.eigvalsh(S.toarray())[-3:]
    assert np.allclose(exact._top_eigen(S, 3), ref, rtol=0.0, atol=1e-10)


def test_kitaev_gap_anchor_small():
    G = build_generator(build_model("Kitaev2D", L=2), 1.0)
    assert abs(spectral_gap(G) - 0.635341) < 1e-5


def test_kitaev_gap_anchor_sparse():
    """L=3 (2^18 states) runs through sparse solves of its star-character blocks."""
    G = build_generator(build_model("Kitaev2D", L=3), 1.0)
    assert abs(spectral_gap(G) - 0.861114) < 1e-5


def test_irreversible_rates_are_rejected():
    model = build_model("Ising1D", N=3)
    G = build_generator(model, 1.0)
    M = G.matrix.toarray()
    M[1, 0] *= 3.0  # break detailed balance by hand
    bad = GeneratorMatrix(sp.csr_matrix(M), G.energies, G.beta, G.kind, G.size)
    with pytest.raises(RuntimeError, match="not reversible"):
        spectral_gap(bad)


def test_irreversible_rates_are_rejected_by_the_blocks(monkeypatch):
    model = build_model("Kitaev2D", L=2)
    rates = exact.flip_rates

    def half_barrier(model, beta, M=0):
        table = rates(model, beta, M)
        return {**table, 0: math.sqrt(table[0])}  # creation at e^-beta, not e^-2beta

    monkeypatch.setattr(exact, "flip_rates", half_barrier)
    with pytest.raises(RuntimeError, match="not reversible"):
        spectral_gap(build_generator(model, 1.0))


# ---------------------------------------------------------------------------
# star-character blocks of the toric-code generator


def _full_spectrum(G):
    """Eigenvalues of the whole generator, ascending, from a hand-built copy."""
    whole = GeneratorMatrix(G.matrix, G.energies, G.beta, G.kind, G.size)
    return np.sort(np.linalg.eigvals(whole.matrix.toarray()).real), whole


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.3, 2.0), move_rate=st.floats(0.2, 3.0))
def test_block_gap_equals_full_gap(beta, move_rate):
    G = build_generator(build_model("Kitaev2D", L=2, move_rate=move_rate), beta)
    w, whole = _full_spectrum(G)
    gap = spectral_gap(G)
    assert abs(gap - spectral_gap(whole)) < 1e-9 * max(1.0, gap)
    assert abs(gap + w[-2]) < 1e-9 * max(1.0, gap)


def test_kitaev_generator_defers_its_matrix():
    G = build_generator(build_model("Kitaev2D", L=2), 1.0)
    spectral_gap(G)
    assert repr(G) == "_KitaevGenerator(beta=1.0, kind='Kitaev2D', size=2)"
    assert "matrix" not in vars(G) and "energies" not in vars(G)
    assert G.dimension == 256
    assert G.matrix.shape == (256, 256) and G.energies.shape == (256,)


def test_blocks_together_are_the_whole_generator():
    """2^(L^2-1) blocks of 2^(L^2+1) states; at L=2 their spectra make up the full one."""
    for L in (2, 3):
        blocks = StarBlocks(build_model("Kitaev2D", L=L), 1.0)
        assert blocks.characters.size == 1 << (L * L - 1)
        assert blocks.reps.size == 1 << (L * L + 1)
        assert all(bin(int(c)).count("1") % 2 == 0 for c in blocks.characters)
    blocks = StarBlocks(build_model("Kitaev2D", L=2, move_rate=0.7), 0.8)
    w, _ = _full_spectrum(build_generator(blocks.model, 0.8))
    parts = np.concatenate([np.linalg.eigvalsh(blocks.block(c).toarray())
                            for c in blocks.characters])
    assert np.allclose(np.sort(parts), w, atol=1e-10)


def _torus_maps(L):
    """The 8L^2 maps of the square torus as star permutations, perm[s] the
    image of star s: a translation after (x, y) -> (+-x, +-y) or (+-y, +-x).
    The first L^2 are the translations."""
    return [[(sy * y + dy) % L * L + (sx * x + dx) % L
             for x, y in ((s // L, s % L) if swap else (s % L, s // L) for s in range(L * L))]
            for swap, sx, sy, dy, dx in itertools.product(
                (False, True), (1, -1), (1, -1), range(L), range(L))]


def _image(chi, perm):
    return sum(1 << t for s, t in enumerate(perm) if chi >> s & 1)


@pytest.mark.parametrize("L,n_orbits", [(2, 4), (3, 13), (4, 433)])
def test_point_group_orbits_partition_the_characters(L, n_orbits):
    blocks = StarBlocks(build_model("Kitaev2D", L=L), 1.0)
    orbits = blocks.orbits()
    assert len(orbits) == n_orbits  # Burnside count over the 8L^2 torus symmetries
    assert list(orbits[0]) == [0]
    assert all(orbit[0] == orbit.min() for orbit in orbits)
    assert np.array_equal(np.sort(np.concatenate(orbits)), blocks.characters)


@pytest.mark.parametrize("L", [2, 3])
def test_orbits_are_closed_under_every_torus_map(L):
    blocks = StarBlocks(build_model("Kitaev2D", L=L), 1.0)
    maps = _torus_maps(L)
    assert len(maps) == 8 * L * L
    orbit_of = {}
    for k, orbit in enumerate(blocks.orbits()):
        members = set(orbit.tolist())
        assert {_image(chi, perm) for chi in members for perm in maps} == members
        assert {_image(int(orbit[0]), perm) for perm in maps} == members  # one orbit
        orbit_of.update(dict.fromkeys(members, k))
    # every translation orbit lies inside one point-group orbit
    for chi in blocks.characters.tolist():
        assert {orbit_of[_image(chi, perm)] for perm in maps[:L * L]} == {orbit_of[chi]}


def test_orbit_members_share_their_spectrum():
    """At L = 3 rotated and reflected characters, not only translated ones,
    give blocks with the top eigenvalues of the orbit's first member."""
    blocks = StarBlocks(build_model("Kitaev2D", L=3), 1.0)
    translations = _torus_maps(3)[:9]
    top = exact._top_eigen
    n_beyond_translations = 0
    for orbit in blocks.orbits()[:4]:
        first = top(blocks.block(orbit[0]), 3)
        shifted = {_image(int(orbit[0]), perm) for perm in translations}
        for chi in orbit[1:]:
            n_beyond_translations += int(chi) not in shifted
            assert np.allclose(top(blocks.block(chi), 3), first, rtol=0.0, atol=1e-10)
    assert n_beyond_translations > 0


@pytest.mark.parametrize("L,beta,move_rate", [
    (2, 1.0, None), (2, 0.4, 2.5), (2, 1.7, 0.3), (3, 1.0, None), (3, 0.6, 1.8)])
def test_gap_equals_the_translation_orbit_minimum(L, beta, move_rate):
    kw = {} if move_rate is None else {"move_rate": move_rate}
    gap = spectral_gap(build_generator(build_model("Kitaev2D", L=L, **kw), beta))
    ref = translation_orbit_gap(L, beta, move_rate)
    assert abs(gap - ref) <= 1e-12 * ref


def test_published_gaps_are_pinned():
    """The gap_scan digits at beta = 1; a solver change that moves one must say so."""
    gaps = [spectral_gap(build_generator(build_model("Kitaev2D", L=L), 1.0)) for L in (2, 3)]
    assert [repr(g) for g in gaps] == ["0.6353412217602662", "0.8611141299291463"]


def test_trivial_block_spectrum_is_part_of_the_full_one():
    blocks = StarBlocks(build_model("Kitaev2D", L=2, move_rate=1.7), 1.2)
    w, _ = _full_spectrum(build_generator(blocks.model, 1.2))
    for lam in np.linalg.eigvalsh(blocks.block(0).toarray()):
        assert np.abs(w - lam).min() < 1e-10


@pytest.mark.parametrize("L,physical_gap", [(2, 0.876163), (3, 1.734191)])
def test_trivial_block_is_the_gibbs_chain(L, physical_gap):
    """The trivial block annihilates sqrt(Gibbs) of the representatives, and its
    own gap is the physical one (above the full-sector gap)."""
    blocks = StarBlocks(build_model("Kitaev2D", L=L), 1.0)
    B = blocks.block(0)
    root = np.exp(-0.5 * blocks.energies)
    assert np.abs(B @ root).max() < 1e-12 * np.abs(B.diagonal()).max()
    gap = -exact._top_eigen(B, 2)[0]
    assert abs(gap - physical_gap) < 1e-6
    assert gap > spectral_gap(build_generator(blocks.model, 1.0))

# ---------------------------------------------------------------------------
# two-level rates and schedules


def test_two_level_rate_conventions():
    delta, gamma, beta = 1.7, 2.5, 0.8
    up, down = two_level_rates(delta, gamma, beta)
    assert np.isclose(up + down, gamma, rtol=1e-14)
    assert np.isclose(up / down, math.exp(-beta * delta), rtol=1e-12)
    up_m, down_m = two_level_rates(delta, gamma, beta, "metropolis")
    assert down_m == gamma  # downhill at full speed
    assert np.isclose(up_m / down_m, math.exp(-beta * delta), rtol=1e-12)
    with pytest.raises(ValueError, match="unknown rate convention"):
        two_level_rates(1.0, 1.0, 1.0, "glauber")


def test_schedule_validation():
    seg = Segment(0.0, 1.0, (0.0, 0.0), (0.0, 2.0))
    with pytest.raises(ValueError, match="t1 > t0"):
        Segment(1.0, 1.0, (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="at least one segment"):
        ProtocolSchedule(segments=())
    with pytest.raises(ValueError, match="gamma"):
        ProtocolSchedule(segments=(seg,), gamma=0.0)
    with pytest.raises(ValueError, match="contiguous"):
        ProtocolSchedule(segments=(seg, Segment(1.5, 2.0, (0.0, 0.0), (2.0, 2.0))))
    with pytest.raises(ValueError, match="segment boundaries"):
        ProtocolSchedule(segments=(seg,),
                         jumps=(Jump(0.5, (0.0, 0.0), (2.0, 3.0)),))
    # a jump before t_start or after t_end sits on no boundary
    for t in (-0.5, 1.5):
        with pytest.raises(ValueError, match="segment boundaries"):
            ProtocolSchedule(segments=(seg,), jumps=(Jump(t, (0.0, 0.0), (0.0, 0.0)),))
    with pytest.raises(ValueError, match="time-ordered"):
        ProtocolSchedule(segments=(seg,),
                         jumps=(Jump(1.0, (0.0, 0.0), (2.0, 2.0)),
                                Jump(0.0, (0.0, 0.0), (0.0, 0.0))))
    # two jumps at one boundary are applied in the order given
    first = Jump(1.0, (0.0, 0.5), (2.0, 1.0))
    second = Jump(1.0, (0.5, 0.2), (1.0, 3.0))
    after = Segment(1.0, 2.0, (0.2, 0.2), (3.0, 3.0))
    sched = ProtocolSchedule(segments=(seg, after), jumps=(first, second))
    assert sched.steps == (seg, first, second, after)
    sol = integrate_master(sched, (0.5, 0.5))
    p1 = sol.ps[33, 1]  # the populations both jumps act on
    assert [r.label for r in sol.segments] == ["coupled", "jump", "jump", "coupled"]
    assert sol.segments[1].work == (1.0 - p1) * 0.5 + p1 * (1.0 - 2.0)
    assert sol.segments[2].work == (1.0 - p1) * (0.2 - 0.5) + p1 * (3.0 - 1.0)
    assert sol.eps[33:35].tolist() == [[0.5, 1.0], [0.2, 3.0]]
    with pytest.raises(ValueError, match="explicit jumps"):
        ProtocolSchedule(segments=(seg, after), jumps=(second, first))


def test_implicit_discontinuity_rejected():
    # second segment starts at eps1 = 5 while the first ended at 2: a hidden
    # quench, which must be spelled out as a Jump instead
    segs = (Segment(0.0, 1.0, (0.0, 0.0), (0.0, 2.0)),
            Segment(1.0, 2.0, (0.0, 0.0), (5.0, 2.0)))
    with pytest.raises(ValueError, match="explicit jumps"):
        ProtocolSchedule(segments=segs)
    # declaring the move as a jump makes the same timeline legal
    ok = ProtocolSchedule(
        segments=segs,
        jumps=(Jump(1.0, (0.0, 0.0), (2.0, 5.0)),))
    assert ok.t_end == 2.0


def test_integrate_master_rejects_bad_p0():
    sched = ProtocolSchedule(segments=(Segment(0.0, 1.0, (0.0, 0.0), (1.0, 1.0)),))
    with pytest.raises(ValueError, match="probability"):
        integrate_master(sched, (0.9, 0.3))


# ---------------------------------------------------------------------------
# master-equation integration


def test_relaxation_matches_closed_form():
    """Static splitting: p1(t) = p_eq + (p1(0) - p_eq) e^{-gamma t}."""
    delta, gamma, beta = 1.4, 0.9, 1.2
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 3.0, (0.0, 0.0), (delta, delta)),),
        gamma=gamma, beta=beta)
    sol = integrate_master(sched, (1.0, 0.0))
    for t, (_, p1) in zip(sol.ts, sol.ps):
        assert abs(p1 - relax_p1(0.0, delta, gamma, beta, t)) < 1e-9
    assert abs(sol.work) < 1e-15  # nothing moved, no work
    u = sol.p_final[1] * delta
    assert abs(sol.heat - u) < 1e-9  # all internal energy came from the bath


def test_population_normalization_is_exact():
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 5.0, (0.0, 0.0), (3.0, 0.0)),), gamma=1.0, beta=1.0)
    sol = integrate_master(sched, (0.5, 0.5))
    assert np.abs(sol.ps.sum(axis=1) - 1.0).max() < 1e-15


def test_first_law_total_and_per_segment():
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 2.0, (0.0, 0.0), (0.0, 4.0)),
                  Segment(2.0, 6.0, (0.0, 0.0), (4.0, 1.0)),),
        jumps=(Jump(6.0, (0.0, 0.0), (1.0, 0.0)),),
        gamma=1.0, beta=1.0)
    sol = integrate_master(sched, (0.5, 0.5))
    assert abs(sol.delta_u - (sol.work + sol.heat)) < 1e-8
    assert abs(sum(r.delta_u for r in sol.segments) - sol.delta_u) < 1e-8
    for rec in sol.segments:
        assert abs(rec.delta_u - (rec.work + rec.heat)) < 1e-8


def test_jump_does_work_on_frozen_populations():
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 1.0, (0.0, 0.0), (2.0, 2.0), coupled=False),),
        jumps=(Jump(0.0, (0.0, 0.0), (0.0, 2.0)),),
        gamma=1.0, beta=1.0)
    sol = integrate_master(sched, (0.5, 0.5))
    jump_rec = sol.segments[0]
    assert jump_rec.label == "jump"
    assert np.isclose(jump_rec.work, 0.5 * 2.0, rtol=1e-14)
    assert jump_rec.heat == 0.0
    assert np.array_equal(sol.p_final, [0.5, 0.5])  # decoupled: frozen


def test_decoupled_segment_freezes_populations():
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 1.0, (0.0, 1.0), (0.0, 3.0), coupled=False),),
        gamma=5.0, beta=1.0)
    sol = integrate_master(sched, (0.75, 0.25))
    assert np.array_equal(sol.p_final, [0.75, 0.25])
    # work on a frozen state is just sum_i p_i * delta eps_i
    assert np.isclose(sol.work, 0.75 * 1.0 + 0.25 * 3.0, rtol=1e-14)
    assert sol.heat == 0.0


def test_metropolis_relaxation_reaches_gibbs():
    delta, beta = 0.9, 1.5
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 40.0, (0.0, 0.0), (delta, delta)),),
        gamma=1.0, beta=beta)
    sol = integrate_master(sched, (1.0, 0.0), rates="metropolis")
    assert abs(sol.p_final[1] - heat_bath(beta * delta)) < 1e-9


def test_slow_ramp_extracts_free_energy_difference():
    # lowering an occupied-by-half level quasi-statically recovers
    # kT [ln 2 - ln(1 + e^{-beta E})] of work
    E, beta, gamma = 2.0, 1.0, 1.0
    p_eq = heat_bath(beta * E)
    sched = ProtocolSchedule(
        segments=(Segment(0.0, 3000.0, (0.0, 0.0), (E, 0.0)),),
        gamma=gamma, beta=beta)
    sol = integrate_master(sched, (1.0 - p_eq, p_eq))
    extracted = -sol.work
    ideal = (math.log(2.0) - math.log(1.0 + math.exp(-beta * E))) / beta
    # the residual dissipation of a finite-speed ramp scales as 1/ramp_time
    assert 0.0 < ideal - extracted < 5e-4
