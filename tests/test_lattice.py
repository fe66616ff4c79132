"""Geometry, energies, syndromes, and logical loops of the lattice models."""

import dataclasses

import numpy as np
import pytest

from memlab.lattice import (LatticeModel, LogicalOperator, SpinConfiguration, Syndrome,
                            block_flip_delta, build_model, energy, logical_bare,
                            logical_operator, syndrome)

from _oracles import (brute_plaquette_syndrome, mean_field_energy,
                      plaquette_edge_sets, ring_energy, star_edge_sets)


def random_spins(rng, n):
    return SpinConfiguration(rng.choice(np.array([-1, 1], dtype=np.int8), size=n))


def test_build_model_validation():
    with pytest.raises(ValueError, match="unsupported model kind"):
        build_model("Heisenberg", N=4)
    with pytest.raises(ValueError, match="^Ising1D size N must be an integer of at least 2"):
        build_model("Ising1D", N=1)
    with pytest.raises(ValueError,
                       match="^IsingMeanField size N must be an integer of at least 1"):
        build_model("IsingMeanField", N=0)
    with pytest.raises(ValueError, match="^Ising2D size L must be an integer of at least 2"):
        build_model("Ising2D", L=1)
    with pytest.raises(ValueError, match="^Kitaev2D size L must be an integer of at least 2"):
        build_model("Kitaev2D", L=1)
    # a size is not truncated: 3.9 is no ring of 3 spins, True no ring at all
    for kind, name, size in [("Ising1D", "N", 3.9), ("IsingMeanField", "N", 2.5),
                             ("Ising2D", "L", 2.0), ("Kitaev2D", "L", 3.5),
                             ("Ising1D", "N", True), ("Kitaev2D", "L", np.bool_(True))]:
        with pytest.raises(ValueError, match=f"size {name} must be an integer"):
            build_model(kind, **{name: size})
    assert build_model("Ising1D", N=np.int64(5)).N == 5
    assert build_model("Kitaev2D", L=np.int32(3)).L == 3


@pytest.mark.parametrize("n", [2, 3, 7])
def test_ring_neighbour_table(n):
    """Ising1D carries the ring in (previous, next) order; at N = 2 both are
    the other spin, the doubled bond."""
    table = build_model("Ising1D", N=n).neighbours
    assert table is not None
    assert table.tolist() == [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def test_geometry_tables_are_shared_and_read_only():
    a, b = build_model("Kitaev2D", L=4), build_model("Kitaev2D", L=4, move_rate=0.5)
    assert a.plaquette_edges is b.plaquette_edges
    for table in (a.edge_plaquettes, a.edge_stars, a.plaquette_edges, a.star_edges,
                  build_model("Ising1D", N=5).neighbours,
                  build_model("Ising2D", L=3).neighbours):
        with pytest.raises(ValueError):
            table[0, 0] = -1


def test_spin_configuration_validation():
    with pytest.raises(ValueError):
        SpinConfiguration(np.array([1, 0, -1]))
    with pytest.raises(ValueError):
        SpinConfiguration(np.array([]))


def test_spin_configuration_rejects_non_integer_spins():
    # values are checked before the int8 cast, which would truncate them
    for bad in ([1.5, -1.9], [0.999, -1]):
        with pytest.raises(ValueError, match="spins"):
            SpinConfiguration(bad)
    for good in ([1.0, -1.0], np.array([1, -1], dtype=np.int8)):
        cfg = SpinConfiguration(good)
        assert cfg.spins.dtype == np.int8
        assert cfg.spins.tolist() == [1, -1]


def test_model_holds_no_temperature():
    # beta is an argument of every rate computation, never model state
    assert "beta" not in {f.name for f in dataclasses.fields(LatticeModel)}
    with pytest.raises(TypeError, match="beta"):
        build_model("Ising1D", N=6, beta=1.0)


# --- energies ---------------------------------------------------------------


def test_ring_energy_matches_direct_sum():
    rng = np.random.default_rng(0)
    model = build_model("Ising1D", N=9, J=0.8)
    for _ in range(50):
        cfg = random_spins(rng, 9)
        assert energy(model, cfg) == pytest.approx(
            ring_energy(cfg.spins.tolist(), 0.8), abs=1e-12)


def test_two_spin_ring_counts_the_doubled_bond():
    model = build_model("Ising1D", N=2)
    up = SpinConfiguration(np.array([1, 1], dtype=np.int8))
    mixed = SpinConfiguration(np.array([1, -1], dtype=np.int8))
    assert energy(model, up) == -2.0
    assert energy(model, mixed) == 2.0


def test_mean_field_energy_matches_direct_sum():
    rng = np.random.default_rng(1)
    model = build_model("IsingMeanField", N=11, J=1.3)
    for _ in range(50):
        cfg = random_spins(rng, 11)
        assert energy(model, cfg) == pytest.approx(
            mean_field_energy(cfg.spins.tolist(), 1.3), abs=1e-12)


def test_torus_energy_matches_loop_sum():
    """Ising2D energy equals the explicit nearest-neighbour double loop."""
    rng = np.random.default_rng(2)
    L = 4
    model = build_model("Ising2D", L=L, J=0.6)
    for _ in range(25):
        cfg = random_spins(rng, L * L)
        grid = cfg.spins.reshape(L, L)
        e = 0.0
        for y in range(L):
            for x in range(L):
                e -= 0.6 * grid[y, x] * grid[y, (x + 1) % L]
                e -= 0.6 * grid[y, x] * grid[(y + 1) % L, x]
        assert energy(model, cfg) == pytest.approx(e, abs=1e-12)


def test_ground_state_energies():
    assert energy(build_model("Ising1D", N=8), SpinConfiguration.all_up(8)) == -8.0
    assert energy(build_model("IsingMeanField", N=8), SpinConfiguration.all_up(8)) == -4.0
    assert energy(build_model("Ising2D", L=3), SpinConfiguration.all_up(9)) == -18.0


def test_energy_size_mismatch():
    model = build_model("Ising1D", N=5)
    with pytest.raises(ValueError, match="5"):
        energy(model, SpinConfiguration.all_up(6))


# --- block flips -------------------------------------------------------------


def test_block_flip_reference_values():
    # ring: one domain wall pair regardless of block length
    ring = build_model("Ising1D", N=16, J=1.0)
    assert all(block_flip_delta(ring, k) == 4.0 for k in range(1, 16))
    # mean field: 2 J k (1 - k/N)
    assert block_flip_delta(build_model("IsingMeanField", N=4), 2) == pytest.approx(2.0)
    assert block_flip_delta(build_model("IsingMeanField", N=8), 2) == pytest.approx(3.0)


def test_block_flip_matches_direct_energy():
    """Closed forms agree with flipping an actual contiguous block."""
    for N in range(2, 13):
        for kind in ("Ising1D", "IsingMeanField"):
            model = build_model(kind, N=N)
            e0 = energy(model, SpinConfiguration.all_up(N))
            for k in range(1, N):
                spins = np.ones(N, dtype=np.int8)
                spins[:k] = -1
                delta = energy(model, SpinConfiguration(spins)) - e0
                assert block_flip_delta(model, k) == pytest.approx(delta, abs=1e-12)


def test_block_flip_barrier_shape():
    model = build_model("IsingMeanField", N=12)
    costs = [block_flip_delta(model, k) for k in range(1, 7)]
    assert all(b > a for a, b in zip(costs, costs[1:]))  # increasing to N/2


def test_block_flip_range_errors():
    model = build_model("IsingMeanField", N=6)
    for bad in (0, 6, 7, -1):
        with pytest.raises(ValueError, match="out of range"):
            block_flip_delta(model, bad)
    with pytest.raises(ValueError):
        block_flip_delta(build_model("Kitaev2D", L=2), 1)


# --- syndromes ---------------------------------------------------------------


def test_syndrome_single_edge():
    model = build_model("Kitaev2D", L=3)
    for e in range(2 * 9):
        syn = syndrome(model, {e})
        assert len(syn) == 2
        assert syn.anyons == frozenset(int(p) for p in model.edge_plaquettes[e])


def test_syndrome_matches_brute_enumeration():
    """Random error sets against an independently rebuilt plaquette table."""
    rng = np.random.default_rng(3)
    for L in (2, 3, 4):
        model = build_model("Kitaev2D", L=L)
        n_e = 2 * L * L
        for _ in range(60):
            k = int(rng.integers(0, n_e + 1))
            err = frozenset(rng.choice(n_e, size=k, replace=False).tolist())
            assert syndrome(model, err).anyons == brute_plaquette_syndrome(err, L)


def test_syndrome_star_sector():
    model = build_model("Kitaev2D", L=3)
    syn = syndrome(model, {0}, sector="star")
    assert syn.sector == "star"
    assert syn.anyons == frozenset(int(s) for s in model.edge_stars[0])


def test_syndrome_is_always_even():
    rng = np.random.default_rng(4)
    model = build_model("Kitaev2D", L=4)
    for _ in range(100):
        k = int(rng.integers(0, 32))
        err = frozenset(rng.choice(32, size=k, replace=False).tolist())
        assert len(syndrome(model, err)) % 2 == 0


def test_syndrome_validation():
    model = build_model("Kitaev2D", L=2)
    with pytest.raises(ValueError, match="sector"):
        syndrome(model, {0}, sector="vertex")
    with pytest.raises(ValueError, match="invalid edge"):
        syndrome(model, {99})
    with pytest.raises(ValueError):
        syndrome(build_model("Ising1D", N=4), {0})
    with pytest.raises(ValueError, match="even"):
        Syndrome(frozenset({1}), "plaquette")


def test_contractible_dual_loops_have_empty_syndrome():
    """Star products are the error sets no plaquette stabilizer can see."""
    L = 3
    model = build_model("Kitaev2D", L=L)
    for es in star_edge_sets(L):
        assert len(syndrome(model, es)) == 0
    # a face boundary, by contrast, excites its four neighbours
    for es in plaquette_edge_sets(L):
        assert len(syndrome(model, es)) == 4


def test_kitaev_energy_counts_both_sectors():
    model = build_model("Kitaev2D", L=3)
    assert energy(model, frozenset()) == 0.0
    # one flipped edge -> two plaquette anyons and two star anyons
    assert energy(model, {0}) == 4.0


# --- logical operators --------------------------------------------------------


def test_logical_supports_are_minimal_cycles():
    for L in (2, 3, 4, 5, 6):
        model = build_model("Kitaev2D", L=L)
        for mu in (1, 2):
            z = logical_operator(model, mu)
            x = logical_operator(model, mu, sector="X-type")
            assert len(z.support) == L and len(x.support) == L
            # conjugate pairs meet in exactly one edge, opposite pairs in none
            assert len(z.support & x.support) == 1
            other = logical_operator(model, 3 - mu, sector="X-type")
            assert len(z.support & other.support) == 0
            # each loop is invisible to the stabilizers of its own kind:
            # X strings commute with plaquettes, Z strings with stars
            assert len(syndrome(model, x.support, sector="plaquette")) == 0
            assert len(syndrome(model, z.support, sector="star")) == 0
            # so logical_bare reads both
            assert logical_bare(model, (), z) == logical_bare(model, (), x) == 1


def test_logical_bare_readout():
    model = build_model("Kitaev2D", L=3)
    z1 = logical_operator(model, 1)
    assert logical_bare(model, frozenset(), z1) == 1
    assert logical_bare(model, {next(iter(z1.support))}, z1) == -1
    # a full Z1-row of flips crosses it L times
    assert logical_bare(model, z1.support, z1) == (-1) ** 3
    x1 = logical_operator(model, 1, sector="X-type")
    assert logical_bare(model, z1.support, x1) == 1  # X-type commutes with flips


def test_logical_bare_rejects_an_open_string():
    model = build_model("Kitaev2D", L=3)
    for sector in ("Z-type", "X-type"):
        for support in ({18}, {4, 6}):  # off the L = 3 edges; open
            with pytest.raises(ValueError, match=f"not a closed {sector} loop"):
                logical_bare(model, (), LogicalOperator(1, sector, support))


def test_logical_operator_validation():
    model = build_model("Kitaev2D", L=2)
    with pytest.raises(ValueError, match="mu"):
        logical_operator(model, 3)
    with pytest.raises(ValueError, match="sector"):
        logical_operator(model, 1, sector="Y-type")
    with pytest.raises(ValueError):
        logical_operator(build_model("Ising2D", L=2), 1)


def test_unknown_sectors_are_named():
    with pytest.raises(ValueError, match="unknown sector: 'edge'"):
        Syndrome(frozenset(), "edge")
    with pytest.raises(ValueError, match="unknown sector: 'Y-type'"):
        LogicalOperator(1, "Y-type", frozenset())


# --- the toric-code tables ----------------------------------------------------


@pytest.mark.parametrize("L", range(2, 9))
def test_toric_code_tables_are_pinned(L):
    """All four incidence tables and the four logical loops, entry for entry,
    against independent walks of the L x L torus."""
    model = build_model("Kitaev2D", L=L)
    tables = (model.edge_plaquettes, model.edge_stars, model.plaquette_edges, model.star_edges)
    assert [t.dtype for t in tables] == [np.int64] * 4
    assert model.plaquette_edges.tolist() == [sorted(es) for es in plaquette_edge_sets(L)]
    assert model.star_edges.tolist() == [sorted(es) for es in star_edge_sets(L)]

    def site(x, y):
        return (y % L) * L + x % L

    # h(x, y) = y*L + x, then v(x, y) = L^2 + y*L + x; each row is (this, other)
    cells = [(x, y) for y in range(L) for x in range(L)]
    assert model.edge_plaquettes.tolist() == (
        [[site(x, y), site(x, y - 1)] for x, y in cells]
        + [[site(x, y), site(x - 1, y)] for x, y in cells])
    assert model.edge_stars.tolist() == (
        [[site(x, y), site(x + 1, y)] for x, y in cells]
        + [[site(x, y), site(x, y + 1)] for x, y in cells])
    row = {site(x, 0) for x in range(L)}
    column = {site(0, y) for y in range(L)}
    vertical = L * L
    assert {(mu, sector): logical_operator(model, mu, sector).support
            for mu in (1, 2) for sector in ("Z-type", "X-type")} == {
        (1, "Z-type"): row, (2, "Z-type"): {vertical + e for e in column},
        (1, "X-type"): column, (2, "X-type"): {vertical + e for e in row}}
