"""Matching decoder: pairing optimality, path determinism, dressed readout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memlab.decoder import (EXACT_LIMIT, Correction, _geodesic_edges, _pair_exact, _plan,
                            crossing_sign, decode_matching, dressed_logical,
                            is_logical_failure)
from memlab.lattice import (Syndrome, build_model, logical_operator, syndrome)

from _oracles import (boundary_group, homology_coefficients,
                      min_pairing_weight, recursive_pair_exact, torus_dist)


def random_error(rng, L, k):
    return frozenset(rng.choice(2 * L * L, size=k, replace=False).tolist())


def test_empty_syndrome_decodes_to_nothing():
    corr = decode_matching(Syndrome(frozenset(), "plaquette"), 3)
    assert corr.edges == frozenset()
    assert corr.weight == 0
    assert corr.method == "exact"


def test_single_edge_errors_decode_to_themselves():
    """The two anyons of one flipped edge sit on adjacent faces.

    Needs L >= 3: only then is the flipped edge the unique weight-1 chain
    with that syndrome (see the distance-2 test below for the L=2 caveat).
    """
    for L in (3, 4):
        model = build_model("Kitaev2D", L=L)
        for e in range(2 * L * L):
            corr = decode_matching(syndrome(model, {e}), L)
            assert corr.edges == frozenset({e})


def test_distance_two_lattice_cannot_localize_single_errors():
    """At L=2 adjacent faces share two parallel edges, so the code has
    distance 2: the syndrome of a single flip is ambiguous and the decoder
    deterministically picks the lower-index edge of the pair."""
    L = 2
    model = build_model("Kitaev2D", L=L)
    # edges 0 and 2 excite the same face pair; so do 1/3, 4/5, 6/7
    for lo, hi in ((0, 2), (1, 3), (4, 5), (6, 7)):
        assert syndrome(model, {lo}) == syndrome(model, {hi})
        assert decode_matching(syndrome(model, {hi}), L).edges == frozenset({lo})
    # the misidentified partner leaves a noncontractible residual: a real
    # logical failure, unavoidable below distance 3
    corr = decode_matching(syndrome(model, {2}), L)
    z1 = logical_operator(model, 1)
    assert is_logical_failure({2}, corr, z1)
    assert not is_logical_failure({0}, corr, z1)


@pytest.mark.parametrize("L", [3, 4, 5])
def test_correction_always_reproduces_the_syndrome(L):
    rng = np.random.default_rng(10 + L)
    model = build_model("Kitaev2D", L=L)
    for _ in range(80):
        err = random_error(rng, L, int(rng.integers(0, 2 * L * L + 1)))
        syn = syndrome(model, err)
        corr = decode_matching(syn, L)
        assert syndrome(model, corr.edges) == syn


def test_exact_pairing_matches_brute_force_minimum():
    """Subset DP equals the (2k-1)!! enumeration up to the exact limit, 12 anyons."""
    rng = np.random.default_rng(5)
    L = 6
    for k in (2, 4, 6, 8, 10, 12):
        for _ in range(20):
            anyons = sorted(rng.choice(L * L, size=k, replace=False).tolist())
            dist = [[torus_dist((a % L, a // L), (b % L, b // L), L) for b in anyons]
                    for a in anyons]
            pairs = _pair_exact(anyons, dist)
            got = sum(torus_dist((a % L, a // L), (b % L, b // L), L)
                      for a, b in pairs)
            want = min_pairing_weight([(a % L, a // L) for a in anyons],
                                      lambda p, q: torus_dist(p, q, L))
            assert got == pytest.approx(want)


@settings(max_examples=300, deadline=None)
@given(case=st.integers(2, 6).flatmap(lambda L: st.tuples(
    st.just(L), st.lists(st.integers(0, L * L - 1), unique=True,
                         max_size=min(EXACT_LIMIT, L * L)))))
def test_planned_pairing_equals_the_recursive_one(case):
    """Same pairs, tie-breaks included; small tori make ties common."""
    L, anyons = case
    anyons = sorted(anyons[:len(anyons) - len(anyons) % 2])
    dist = [[torus_dist((a % L, a // L), (b % L, b // L), L) for b in anyons]
            for a in anyons]
    assert _pair_exact(anyons, dist) == recursive_pair_exact(anyons, dist)


def test_plan_size_at_the_exact_limit():
    plan = _plan(12)
    assert plan[0] is None
    assert len(plan) - 1 == 232
    assert sum(len(options) for _, options in plan[1:]) == 1076


def test_greedy_fallback_above_the_exact_limit():
    rng = np.random.default_rng(6)
    model = build_model("Kitaev2D", L=5)
    while True:
        err = random_error(rng, 5, 21)
        syn = syndrome(model, err)
        if len(syn) > 12:
            break
    corr = decode_matching(syn, 5)
    assert corr.method == "greedy"
    assert syndrome(model, corr.edges) == syn  # still a valid correction


def test_geodesic_edges_are_deterministic_and_lex_smallest():
    L = 4
    # one step in x: unique geodesic across the shared vertical edge
    assert _geodesic_edges(0, 1, L, "plaquette") == (L * L + 1,)
    # antipodal in x (distance L/2 both ways): wrap via the smaller edge v(0,0)
    assert _geodesic_edges(0, 2, L, "plaquette") == (L * L, L * L + 3)
    # diagonal neighbour: the y-move (edge 4) beats the x-move (edge 17)
    assert _geodesic_edges(0, L + 1, L, "plaquette") == (4, L * L + L + 1)
    # antipodal in y: wrap via the smaller edge 0
    assert _geodesic_edges(0, 2 * L, L, "plaquette") == (0, 3 * L)


def test_path_endpoints_are_the_only_excitations():
    rng = np.random.default_rng(7)
    L = 5
    model = build_model("Kitaev2D", L=L)
    for _ in range(60):
        a, b = sorted(rng.choice(L * L, size=2, replace=False).tolist())
        path = _geodesic_edges(a, b, L, "plaquette")
        assert syndrome(model, path).anyons == frozenset({int(a), int(b)})


def test_odd_syndrome_is_rejected():
    with pytest.raises(ValueError):
        Syndrome(frozenset({0, 1, 2}), "plaquette")


@pytest.mark.parametrize("far", [9, 100])
def test_anyons_off_the_torus_are_rejected(far):
    # L = 3 has plaquettes 0-8; unchecked, 9 wraps onto plaquette 0 and 100 ends
    # the geodesic walk at once, each decoding to an empty correction
    with pytest.raises(ValueError, match=f"^anyon {far} is not a stabilizer of the L=3 torus"):
        decode_matching(Syndrome(frozenset({0, far}), "plaquette"), 3)
    model = build_model("Kitaev2D", L=3)
    corr = decode_matching(Syndrome(frozenset({0, 8}), "plaquette"), 3)
    assert syndrome(model, corr.edges) == Syndrome(frozenset({0, 8}), "plaquette")


# --- dressed readout ----------------------------------------------------------


def test_dressed_logical_clean_frame():
    L = 3
    model = build_model("Kitaev2D", L=L)
    z1 = logical_operator(model, 1)
    outcomes = np.ones(2 * L * L, dtype=np.int64)
    assert dressed_logical(outcomes, z1, L) == 1


def test_dressed_logical_corrects_every_single_edge():
    for L in (3, 4):
        model = build_model("Kitaev2D", L=L)
        for mu in (1, 2):
            op = logical_operator(model, mu)
            for e in range(2 * L * L):
                outcomes = np.ones(2 * L * L, dtype=np.int64)
                outcomes[e] = -1
                assert dressed_logical(outcomes, op, L) == 1


def test_dressed_logical_sees_a_logical_string():
    """A noncontractible dual loop is invisible to the decoder but flips the bit."""
    L = 3
    model = build_model("Kitaev2D", L=L)
    z1 = logical_operator(model, 1)
    x1 = logical_operator(model, 1, sector="X-type")
    outcomes = np.ones(2 * L * L, dtype=np.int64)
    outcomes[list(x1.support)] = -1
    assert len(syndrome(model, x1.support)) == 0
    assert dressed_logical(outcomes, z1, L) == -1


def test_dressed_logical_validation():
    L = 2
    model = build_model("Kitaev2D", L=L)
    with pytest.raises(ValueError, match="Z-type"):
        dressed_logical(np.ones(8), logical_operator(model, 1, "X-type"), L)
    with pytest.raises(ValueError, match="8"):
        dressed_logical(np.ones(5), logical_operator(model, 1), L)


@pytest.mark.parametrize("L", ["3", True, 1, 3.0])
def test_dressed_logical_checks_L_first(L):
    model = build_model("Kitaev2D", L=3)
    with pytest.raises(ValueError, match="^L must be an integer of at least 2"):
        dressed_logical(np.ones(18), logical_operator(model, 1), L)


def _z1_half_readout():
    """All-up outcomes at L = 3 with -0.5 on one edge of the Z1 support."""
    L = 3
    outcomes = np.ones(2 * L * L)
    outcomes[min(logical_operator(build_model("Kitaev2D", L=L), 1).support)] = -0.5
    return outcomes


@pytest.mark.parametrize("outcomes", [_z1_half_readout(), np.full(18, 7.0)],
                         ids=["half-on-support", "all-sevens"])
def test_dressed_logical_rejects_non_unit_outcomes(outcomes):
    """A plain array goes through SpinConfiguration: only +-1 readouts count."""
    model = build_model("Kitaev2D", L=3)
    with pytest.raises(ValueError, match="\\+1 or -1"):
        dressed_logical(outcomes, logical_operator(model, 1), 3)


def test_crossing_sign_parity():
    model = build_model("Kitaev2D", L=3)
    z1 = logical_operator(model, 1)
    assert crossing_sign(frozenset(), z1) == 1
    some = next(iter(z1.support))
    assert crossing_sign({some}, z1) == -1
    assert crossing_sign(z1.support, z1) == -1  # |support| = 3 is odd
    assert crossing_sign({some}, logical_operator(model, 1, "X-type")) == 1


def test_is_logical_failure_requires_matching_syndrome():
    L = 3
    model = build_model("Kitaev2D", L=L)
    z1 = logical_operator(model, 1)
    err = frozenset({0, 5})
    wrong = decode_matching(syndrome(model, {4}), L)
    with pytest.raises(ValueError, match="syndrome"):
        is_logical_failure(err, wrong, z1)


def test_weight_two_failures_match_the_homology_oracle():
    """Exhaustive weight-2 errors at L=3 against brute boundary enumeration."""
    L = 3
    model = build_model("Kitaev2D", L=L)
    boundaries = boundary_group(L)
    conj = [logical_operator(model, 1, "X-type").support,
            logical_operator(model, 2, "X-type").support]
    ops = [logical_operator(model, 1), logical_operator(model, 2)]
    n_e = 2 * L * L
    checked = 0
    for e1 in range(n_e):
        for e2 in range(e1 + 1, n_e):
            err = frozenset({e1, e2})
            corr = decode_matching(syndrome(model, err), L)
            residual = err ^ corr.edges
            c = homology_coefficients(residual, L, boundaries, conj)
            for mu, op in enumerate(ops):
                assert is_logical_failure(err, corr, op) == bool(c[mu])
            checked += 1
    assert checked == n_e * (n_e - 1) // 2


def _readouts(model, error):
    """(dressed readout, logical failure) of each Z-type direction mu = 1, 2."""
    L = model.L
    outcomes = np.ones(2 * L * L, dtype=np.int64)
    outcomes[sorted(error)] = -1
    corr = decode_matching(syndrome(model, error), L)
    return [(dressed_logical(outcomes, op, L), is_logical_failure(error, corr, op))
            for op in (logical_operator(model, 1), logical_operator(model, 2))]


@settings(max_examples=60, deadline=None)
@given(case=st.integers(3, 5).flatmap(lambda L: st.tuples(
    st.just(L), st.frozensets(st.integers(0, 2 * L * L - 1), max_size=10),
    st.integers(0, L * L - 1), st.sampled_from([1, 2]))))
def test_readouts_see_homology_only(case):
    """A star (a stabilizer) leaves both readouts alone; the X-type loop of
    direction mu flips the Z-type readouts of that mu and no other."""
    L, error, star, mu = case
    model = build_model("Kitaev2D", L=L)
    base = _readouts(model, error)
    star_edges = frozenset(model.star_edges[star].tolist())
    assert _readouts(model, error ^ star_edges) == base
    loop = logical_operator(model, mu, "X-type").support
    flipped = [(-dressed, not failed) if nu == mu else (dressed, failed)
               for nu, (dressed, failed) in enumerate(base, 1)]
    assert _readouts(model, error ^ loop) == flipped


def test_operators_of_another_lattice_are_rejected():
    """A logical operator must be a closed loop of the model it reads."""
    model = build_model("Kitaev2D", L=3)
    star = frozenset(model.star_edges[4].tolist())
    outcomes = np.ones(18, dtype=np.int64)
    outcomes[sorted(star)] = -1
    assert dressed_logical(outcomes, logical_operator(model, 2), 3) == 1
    small = logical_operator(build_model("Kitaev2D", L=2), 2)  # support {4, 6}
    with pytest.raises(ValueError, match="not a closed Z-type loop"):
        dressed_logical(outcomes, small, 3)
    large = logical_operator(build_model("Kitaev2D", L=5), 1)  # support {0 .. 4}
    empty = Correction([], 3)
    with pytest.raises(ValueError, match="not a closed Z-type loop"):
        is_logical_failure(model.star_edges[3].tolist(), empty, large)
