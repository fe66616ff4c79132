"""Density-matrix utilities: entropy, distance, channels, and the bound checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import toolkit_sweep_loop
from memlab import (
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    correctable_isometry_check,
    depolarizing_channel,
    entropy,
    erasure_balance,
    fannes_allowance,
    fannes_check,
    random_channel,
    random_density,
    repetition_code_channels,
    toolkit_sweep,
    trace_distance,
)
from memlab.qtoolkit import IsometryReport, _check_densities


def _diag(*probs):
    return DensityMatrix(np.diag(probs).astype(complex))


def _random_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------------------
# state and channel validation


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="cap"):
        DensityMatrix(np.eye(65) / 65.0)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_nan_and_infinite_states_are_rejected():
    # every comparison with NaN is false, so no later check would catch it
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.array([[np.inf, 0.0], [0.0, 0.5]]))


def test_zero_dimensional_state_is_named():
    with pytest.raises(ValueError, match="dimension 0"):
        DensityMatrix(np.zeros((0, 0)))


def test_rank_zero_random_state_is_rejected():
    with pytest.raises(ValueError, match="rank"):
        random_density(2, np.random.default_rng(0), rank=0)


_BAD_MATRICES = {
    "not square": np.ones((2, 3)),
    "empty": np.zeros((0, 0)),
    "above the cap": np.eye(65) / 65.0,
    "nan": np.full((2, 2), np.nan),
    "infinite": np.diag([np.inf, 0.5]),
    "not hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    "trace 2": np.eye(2),
    "negative eigenvalue": np.diag([1.5, -0.5]),
}


@pytest.mark.parametrize("bad", _BAD_MATRICES.values(), ids=_BAD_MATRICES.keys())
def test_stacked_validator_and_density_matrix_agree(bad):
    """The sweep validates whole stacks; a bad member fails with the message
    ``DensityMatrix`` gives for it alone."""
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad)
    good = np.eye(*bad.shape) / max(len(bad), 1)
    with pytest.raises(ValueError) as stacked:
        _check_densities(np.stack([good, bad]).astype(np.complex128))
    assert str(stacked.value) == str(single.value)


def test_density_matrix_is_read_only():
    rho = _diag(0.5, 0.5)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.7


def test_channel_validation():
    with pytest.raises(ValueError, match="at least one"):
        QuantumChannel(())
    with pytest.raises(ValueError, match="one shape"):
        QuantumChannel((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="completeness"):
        QuantumChannel((0.5 * np.eye(2),))
    with pytest.raises(ValueError, match="non-finite"):
        QuantumChannel((np.full((2, 2), np.nan),))
    with pytest.raises(ValueError, match="dimension 0"):
        QuantumChannel((np.zeros((0, 0)),))


def test_encoder_channel_dimensions():
    _, _, encoder = repetition_code_channels()
    assert encoder.dim_in == 2
    assert encoder.dim_out == 8


# ---------------------------------------------------------------------------
# entropy and trace distance


def test_entropy_anchors():
    assert entropy(_diag(1.0, 0.0)) == 0.0
    assert np.isclose(entropy(_diag(0.5, 0.5)), math.log(2.0), atol=1e-14)
    assert np.isclose(entropy(_diag(0.25, 0.25, 0.25, 0.25)), math.log(4.0), atol=1e-14)
    closed = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert np.isclose(entropy(_diag(0.75, 0.25)), closed, atol=1e-14)
    assert abs(closed - 0.562335) < 5e-7


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 5):
        rho = random_density(dim, rng)
        u = _random_unitary(dim, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert abs(entropy(rotated) - entropy(rho)) < 1e-10


def test_trace_distance_anchors():
    rho = _diag(0.5, 0.5)
    assert trace_distance(rho, rho) == 0.0
    # orthogonal pure states sit at the far end of the [0, 2] range
    assert np.isclose(trace_distance(_diag(1.0, 0.0), _diag(0.0, 1.0)), 2.0, atol=1e-14)
    assert np.isclose(trace_distance(_diag(0.9, 0.1), _diag(0.6, 0.4)), 0.6, atol=1e-14)
    with pytest.raises(ValueError, match="mismatch"):
        trace_distance(rho, _diag(1.0, 0.0, 0.0))


def test_trace_distance_symmetry_and_triangle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a, b, c = (random_density(3, rng) for _ in range(3))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-13
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


# ---------------------------------------------------------------------------
# channels and contraction


def test_identity_channel_is_exact():
    rho = _diag(0.3, 0.7)
    out = apply_channel(QuantumChannel((np.eye(2),)), rho)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_depolarizing_lands_on_maximally_mixed():
    rng = np.random.default_rng(12)
    chan = depolarizing_channel(4)
    mixed = DensityMatrix(np.eye(4) / 4.0)
    for _ in range(5):
        out = apply_channel(chan, random_density(4, rng))
        assert trace_distance(out, mixed) < 1e-12


def test_channel_input_dimension_checked():
    chan = depolarizing_channel(3)
    with pytest.raises(ValueError, match="does not match"):
        apply_channel(chan, _diag(0.5, 0.5))


def test_contraction_report_over_random_pairs():
    rng = np.random.default_rng(77)
    for dim in (2, 3, 4):
        chan = random_channel(dim, 3, rng)
        pairs = [(random_density(dim, rng), random_density(dim, rng))
                 for _ in range(50)]
        _, report = apply_channel(chan, pairs[0][0], check_pairs=pairs)
        assert report.pairs == 50
        assert report.max_violation <= 1e-10
        assert report.passed


def test_contraction_report_empty_pairs():
    chan = depolarizing_channel(2)
    _, report = apply_channel(chan, _diag(0.5, 0.5), check_pairs=[])
    assert report.pairs == 0
    assert report.max_violation == 0.0
    assert report.passed


def test_unitary_channel_preserves_distance():
    rng = np.random.default_rng(4)
    u = _random_unitary(3, rng)
    chan = QuantumChannel((u,))
    a, b = random_density(3, rng), random_density(3, rng)
    out_a = apply_channel(chan, a)
    out_b = apply_channel(chan, b)
    assert abs(trace_distance(out_a, out_b) - trace_distance(a, b)) < 1e-10


# ---------------------------------------------------------------------------
# correctable-code distance preservation


def _encoded_states():
    _, _, encoder = repetition_code_channels()
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    rng = np.random.default_rng(9)
    logicals = [_diag(1.0, 0.0), _diag(0.0, 1.0), plus, random_density(2, rng)]
    return [apply_channel(encoder, rho) for rho in logicals]


def test_repetition_code_corrects_single_flips():
    noise, recovery, _ = repetition_code_channels(p_flip=0.2)
    for rho in _encoded_states():
        recovered = apply_channel(recovery, apply_channel(noise, rho))
        assert trace_distance(recovered, rho) < 1e-10


def test_repetition_code_distance_preservation():
    noise, recovery, _ = repetition_code_channels()
    report = correctable_isometry_check(noise, recovery, _encoded_states())
    assert report.precondition_ok
    assert report.precondition_failures == ()
    assert report.pairs == 6
    assert report.max_deviation < 1e-8
    assert report.passed


def test_uncorrectable_channel_fails_precondition():
    # full depolarizing destroys everything; identity "recovery" can't undo it
    chan = depolarizing_channel(2)
    recovery = QuantumChannel((np.eye(2),))
    states = [_diag(1.0, 0.0), _diag(0.0, 1.0)]
    report = correctable_isometry_check(chan, recovery, states)
    assert not report.precondition_ok
    assert len(report.precondition_failures) == 2
    assert report.precondition_failures[0][0] == 0
    assert not report.passed


def test_unitary_with_inverse_recovery_passes():
    rng = np.random.default_rng(15)
    u = _random_unitary(4, rng)
    chan = QuantumChannel((u,))
    recovery = QuantumChannel((u.conj().T,))
    states = [random_density(4, rng) for _ in range(4)]
    report = correctable_isometry_check(chan, recovery, states)
    assert report.precondition_ok
    assert report.passed


def test_flip_probability_range():
    with pytest.raises(ValueError, match="1/3"):
        repetition_code_channels(p_flip=0.4)
    repetition_code_channels(p_flip=1.0 / 3.0)  # boundary is allowed


# ---------------------------------------------------------------------------
# Fannes bound and erasure balance


def test_fannes_allowance_values():
    assert fannes_allowance(0.0, 2) == 0.0
    closed = 0.1 * math.log(2.0) - 0.1 * math.log(0.1)
    assert np.isclose(fannes_allowance(0.1, 2), closed, rtol=1e-14)
    with pytest.raises(ValueError):
        fannes_allowance(-0.1, 2)


def test_fannes_slack_closed_form():
    rho, sigma = _diag(0.75, 0.25), _diag(0.8, 0.2)
    d = 0.1  # 2 * |0.75 - 0.8|
    s_rho = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    s_sigma = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    expected = (d * math.log(2.0) - d * math.log(d)) - abs(s_rho - s_sigma)
    assert np.isclose(fannes_check(rho, sigma, 2), expected, atol=1e-12)


def test_fannes_slack_nonnegative_in_window():
    rng = np.random.default_rng(101)
    checked = 0
    for dim in (2, 3):
        for _ in range(300):
            rho, sigma = random_density(dim, rng), random_density(dim, rng)
            d = trace_distance(rho, sigma)
            if d > 1.0 / math.e:
                # pull sigma toward rho until the pair is inside the window
                t = 0.9 / (math.e * d)
                sigma = DensityMatrix((1 - t) * rho.matrix + t * sigma.matrix)
            assert fannes_check(rho, sigma, dim) >= -1e-10
            checked += 1
    assert checked == 600


def test_fannes_window_is_enforced():
    with pytest.raises(ValueError, match="window"):
        fannes_check(_diag(1.0, 0.0), _diag(0.0, 1.0), 2)


def test_erasure_balance_verdicts():
    pure = _diag(1.0, 0.0)
    mixed2 = _diag(0.5, 0.5)
    res = erasure_balance(pure, mixed2)
    assert res.verdict == "boundary"
    assert np.isclose(res.delta_s_bath, math.log(2.0), atol=1e-12)
    assert erasure_balance(mixed2, mixed2).verdict == "violated"
    hot = _diag(1.0 / 3, 1.0 / 3, 1.0 / 3)
    assert erasure_balance(_diag(1.0, 0.0, 0.0), hot).verdict == "meets"


def test_random_generators_produce_valid_objects():
    rng = np.random.default_rng(55)
    rho = random_density(6, rng)
    assert rho.dim == 6
    assert np.isclose(rho.matrix.trace().real, 1.0, atol=1e-12)
    low = random_density(6, rng, rank=2)
    assert np.sum(low.eigenvalues() > 1e-10) == 2
    chan = random_channel(3, 4, rng)
    assert len(chan.kraus) == 4
    assert chan.dim_in == chan.dim_out == 3


def test_toolkit_sweep_keeps_its_draw_order():
    """Seed 2, n = 40: the numbers the sampling loop gave when it was written
    out in the CLI, so any change to the order of draws shows here."""
    sweep = toolkit_sweep(40, np.random.default_rng(2))
    assert sweep.max_contraction_violation == -0.06783952946064722
    assert sweep.isometry.precondition_ok and sweep.isometry.pairs == 66
    assert sweep.isometry.max_deviation < 1e-14
    assert sweep.min_fannes_slack == 0.2697798913802121


def _assert_sweep_matches_the_loop(n, seed):
    code = tuple(c.kraus for c in repetition_code_channels(0.15))
    worst, iso, slack, pulls = toolkit_sweep_loop(n, np.random.default_rng(seed),
                                                   code)
    sweep = toolkit_sweep(n, np.random.default_rng(seed))
    assert sweep.max_contraction_violation == worst
    assert sweep.isometry == IsometryReport(*iso)
    assert sweep.min_fannes_slack == slack
    return pulls


@pytest.mark.parametrize("n,seed,pulls", [(1, 48, 0), (3, 0, 2), (40, 2, 38)])
def test_toolkit_sweep_equals_the_per_sample_loop(n, seed, pulls):
    """Stacking changes no bit: with no Fannes pull, with some, with most."""
    assert _assert_sweep_matches_the_loop(n, seed) == pulls


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_toolkit_sweep_equals_the_loop_on_random_seeds(n, seed):
    _assert_sweep_matches_the_loop(n, seed)
