"""Small density-matrix numerics: entropy, trace distance, CP maps.

Covers the contraction property of channels, correctable-code distance
preservation, the erasure entropy balance, and the Fannes continuity bound
with its validity window.  Everything is dense and dimension-capped; inputs
are explicitly symmetrized before any Hermitian factorization.

Each formula and each validation is written once, for stacks of matrices of
shape (..., d, d).  The per-object API (``DensityMatrix``, ``entropy``,
``trace_distance``, ``apply_channel``, ``fannes_check``) calls those helpers
on a single matrix; ``toolkit_sweep`` calls them on whole sample stacks, so
each LAPACK routine runs once per stack rather than once per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._shared import check_count, check_real

MAX_DIM = 64
LN2 = math.log(2.0)
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
CONTRACTION_TOL = 1e-10
ISOMETRY_TOL = 1e-8
FANNES_WINDOW = 1.0 / math.e


# ---------------------------------------------------------------------------
# stacked helpers: arrays of shape (..., d, d), one matrix per leading index


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _dagger(m))


def _spectra(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian parts."""
    return np.linalg.eigvalsh(_hermitian_part(m))


def _check_densities(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack is a density matrix."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("density matrix must be square")
    dim = m.shape[-1]
    if dim == 0:
        raise ValueError("density matrix has dimension 0")
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} above the cap of {MAX_DIM}")
    # NaN fails no comparison below, so it is rejected here
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    if (np.abs(m - _dagger(m)).max(axis=(-2, -1)) > HERM_TOL).any():
        raise ValueError("matrix is not Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1)
    if (np.abs(tr.real - 1.0) > TRACE_TOL).any() or (np.abs(tr.imag) > TRACE_TOL).any():
        raise ValueError("trace must equal 1")
    if (_spectra(m)[..., 0] < -EIG_TOL).any():
        raise ValueError("matrix has a negative eigenvalue")


def _trace_norms(m: np.ndarray) -> np.ndarray:
    """Trace norms of the Hermitian parts."""
    return np.abs(_spectra(m)).sum(axis=-1)


def _entropies(m: np.ndarray) -> np.ndarray:
    """von Neumann entropies in nats, with 0 ln 0 = 0."""
    lam = np.clip(_spectra(m), 0.0, None)
    return -(lam * np.log(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)


def _check_kraus(kraus: np.ndarray) -> None:
    """Raise ValueError unless each (..., n_kraus, d_out, d_in) entry is trace preserving."""
    if kraus.ndim < 3:
        raise ValueError("Kraus operators must be matrices")
    if 0 in kraus.shape[-2:]:
        raise ValueError("Kraus operators have dimension 0")
    if not np.isfinite(kraus).all():
        raise ValueError("Kraus operator has a non-finite entry")
    comp = 0.0
    for i in range(kraus.shape[-3]):
        k = kraus[..., i, :, :]
        comp = comp + _dagger(k) @ k
    if (np.abs(comp - np.eye(kraus.shape[-1])).max(axis=(-2, -1)) > COMPLETENESS_TOL).any():
        raise ValueError("Kraus completeness sum deviates from identity")


def _kraus_action(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_k K m K^dagger; ``kraus`` is (..., n_kraus, d_out, d_in)."""
    out = 0.0
    for i in range(kraus.shape[-3]):
        k = kraus[..., i, :, :]
        out = out + k @ m @ _dagger(k)
    return _hermitian_part(out)


def _contraction_gaps(kraus: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||T a - T b||_1 - ||a - b||_1 per pair; every output must be a state."""
    ta, tb = _kraus_action(kraus, a), _kraus_action(kraus, b)
    _check_densities(ta)
    _check_densities(tb)
    return _trace_norms(ta - tb) - _trace_norms(a - b)


def _fannes_slacks(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Fannes slack per state pair; raises for a pair outside the window."""
    d = _trace_norms(a - b)
    outside = d > FANNES_WINDOW + 1e-12
    if outside.any():
        raise ValueError(f"trace distance {d[outside][0]:.4f} is outside the Fannes "
                         f"validity window (<= 1/e)")
    # math.log, one pair at a time: np.log differs from it in the last bit
    allowance = np.array([_allowance(x, dim) for x in d.ravel().tolist()])
    return allowance.reshape(d.shape) - np.abs(_entropies(a) - _entropies(b))


def _allowance(eps: float, dim: int) -> float:
    """eps ln D - eps ln eps, for a checked eps >= 0 and dim (:func:`fannes_allowance`)."""
    return 0.0 if eps == 0.0 else eps * math.log(dim) - eps * math.log(eps)


def _gaussians(z: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Complex (..., rows, cols) matrices from normals (..., 2 rows cols), real parts first."""
    shape = z.shape[:-1] + (rows, cols)
    return z[..., :rows * cols].reshape(shape) + 1j * z[..., rows * cols:].reshape(shape)


def _wishart(z: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """Unit-trace g g^dagger for g = _gaussians(z, dim, rank)."""
    g = _gaussians(z, dim, rank)
    m = g @ _dagger(g)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _isometry_kraus(z: np.ndarray, dim: int, n_kraus: int) -> np.ndarray:
    """(..., n_kraus, dim, dim) Kraus stacks cut from a QR-orthonormalized isometry."""
    q, _ = np.linalg.qr(_gaussians(z, dim * n_kraus, dim))
    return q.reshape(z.shape[:-1] + (n_kraus, dim, dim))


# ---------------------------------------------------------------------------
# states, channels and the checks on them


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive matrix of dimension at most 64; equality
    is identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2:
            raise ValueError("density matrix must be square")
        _check_densities(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return _spectra(self.matrix)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form.

    ``kraus`` is one read-only complex (n_kraus, d_out, d_in) array.  The
    constructor takes any iterable of equal-shape matrices, a 3-D array
    included.  Equality is identity.
    """

    kraus: np.ndarray

    def __post_init__(self):
        ks = [np.asarray(k, dtype=np.complex128) for k in self.kraus]
        if not ks:
            raise ValueError("channel needs at least one Kraus operator")
        if any(k.shape != ks[0].shape for k in ks):
            raise ValueError("Kraus operators must share one shape")
        kraus = np.array(ks)
        _check_kraus(kraus)
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy in nats, with 0 ln 0 = 0."""
    return float(_entropies(rho.matrix))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Full trace norm of rho - sigma; ranges over [0, 2]."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return float(_trace_norms(rho.matrix - sigma.matrix))


@dataclass(frozen=True)
class ContractionReport:
    """Trace-distance contraction check over supplied state pairs."""

    pairs: int
    max_violation: float   # largest d_out - d_in seen; <= 0 means contraction
    passed: bool


def apply_channel(channel: QuantumChannel, rho: DensityMatrix, check_pairs=None):
    """Kraus action sum_k K rho K^dagger, optionally with a contraction report.

    With ``check_pairs`` (an iterable of (rho, rho') pairs) the return value
    is (output state, ContractionReport) where the report certifies
    ||T rho - T rho'||_1 <= ||rho - rho'||_1 for every pair.
    """
    pairs = [] if check_pairs is None else list(check_pairs)
    states = [rho] + [s for pair in pairs for s in pair]
    if any(s.dim != channel.dim_in for s in states):
        raise ValueError("state dimension does not match the channel input")
    out = DensityMatrix(_kraus_action(channel.kraus, rho.matrix))
    if check_pairs is None:
        return out
    if not pairs:
        return out, ContractionReport(0, 0.0, True)
    a = np.stack([p[0].matrix for p in pairs])
    b = np.stack([p[1].matrix for p in pairs])
    worst = float(_contraction_gaps(channel.kraus, a, b).max())
    return out, ContractionReport(len(pairs), worst, worst <= CONTRACTION_TOL)


@dataclass(frozen=True)
class IsometryReport:
    """Outcome of the recoverability / distance-preservation check."""

    precondition_ok: bool
    precondition_failures: tuple   # (index, ||RT rho - rho||_1) for offenders
    pairs: int
    max_deviation: float           # largest | d_T - d_id | over pairs
    passed: bool


def correctable_isometry_check(channel: QuantumChannel, recovery: QuantumChannel,
                               code_states) -> IsometryReport:
    """If R undoes T on the code states, T must act isometrically on them.

    First verifies RT = id on every supplied state (trace-distance tolerance
    1e-8); a failure is reported, not raised.  When the precondition holds,
    checks that T preserves all pairwise trace distances to the same
    tolerance — the distance-preservation consequence of correctability.
    """
    states = [rho.matrix for rho in code_states]
    if not states:
        return IsometryReport(True, (), 0, 0.0, True)
    s = np.stack(states)
    ts = _kraus_action(channel.kraus, s)
    rts = _kraus_action(recovery.kraus, ts)
    _check_densities(rts)
    devs = _trace_norms(rts - s).tolist()
    failures = tuple((i, dev) for i, dev in enumerate(devs) if dev > ISOMETRY_TOL)
    if failures:
        return IsometryReport(False, failures, 0, math.inf, False)
    _check_densities(ts)
    i, j = np.triu_indices(len(states), k=1)
    gaps = np.abs(_trace_norms(ts[i] - ts[j]) - _trace_norms(s[i] - s[j]))
    worst = float(gaps.max(initial=0.0))
    return IsometryReport(True, (), len(i), worst, worst <= ISOMETRY_TOL)


def fannes_allowance(eps: float, dim: int) -> float:
    """Entropy change the Fannes bound permits at trace distance eps: eps ln D - eps ln eps."""
    return _allowance(check_real("eps", eps, least=0), check_count("dim", dim))


def fannes_check(rho: DensityMatrix, sigma: DensityMatrix, dim: int) -> float:
    """Slack of the Fannes continuity bound; nonnegative inside its window.

    Returns [d ln D - d ln d] - |S(rho) - S(sigma)| with d the trace
    distance.  Only valid for d <= 1/e, where -x ln x is still monotone;
    larger distances are rejected rather than evaluated.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return float(_fannes_slacks(rho.matrix, sigma.matrix, check_count("dim", dim)))


@dataclass(frozen=True)
class ErasureBalance:
    """Bath entropy change across an erasure step, judged against ln 2."""

    delta_s_bath: float
    verdict: str   # "meets" | "boundary" | "violated"


def erasure_balance(omega_in: DensityMatrix, omega_out: DensityMatrix,
                    tol: float = 1e-9) -> ErasureBalance:
    """S(omega_out) - S(omega_in) and whether it reaches the ln 2 threshold.

    The balance is a checkable predicate on the supplied pair, not a theorem:
    an unchanged bath yields 0 and the verdict "violated".
    """
    ds = entropy(omega_out) - entropy(omega_in)
    if abs(ds - LN2) <= tol:
        verdict = "boundary"
    elif ds > LN2:
        verdict = "meets"
    else:
        verdict = "violated"
    return ErasureBalance(ds, verdict)


# ---------------------------------------------------------------------------
# constructions used by the check suite and the demos


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Wishart-sampled state of the given dimension (full rank by default)."""
    dim = check_count("dim", dim)
    r = dim if rank is None else check_count("rank", rank)
    return DensityMatrix(_wishart(rng.normal(size=2 * dim * r), dim, r))


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> QuantumChannel:
    """Haar-style random channel from a QR-orthonormalized stacked isometry."""
    dim, n_kraus = check_count("dim", dim), check_count("n_kraus", n_kraus)
    z = rng.normal(size=2 * dim * dim * n_kraus)
    return QuantumChannel(_isometry_kraus(z, dim, n_kraus))


def depolarizing_channel(dim: int) -> QuantumChannel:
    """The constant map onto the maximally mixed state."""
    dim = check_count("dim", dim)
    # Kraus operator k = i dim + j is |i><j| / sqrt(dim)
    k = np.arange(dim * dim)
    ks = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    ks[k, k // dim, k % dim] = 1.0 / math.sqrt(dim)
    return QuantumChannel(ks)


def repetition_code_channels(p_flip: float = 0.15):
    """(noise, recovery, encoder) for the 3-bit repetition code.

    The noise channel flips at most one qubit (probability ``p_flip`` for
    each single flip); recovery measures the parity syndrome and undoes the
    indicated flip.  ``encoder`` maps logical qubit states into the code
    space: rho -> V rho V^dagger with V = |000><0| + |111><1|.
    """
    p_flip = check_real("p_flip", p_flip)
    if not 0.0 <= p_flip <= 1.0 / 3.0:
        raise ValueError("p_flip must lie in [0, 1/3]")
    eye = np.eye(8, dtype=np.complex128)
    # X on qubit 1, 2 or 3 swaps basis states |i> and |i ^ 4>, |i ^ 2> or |i ^ 1>
    flips = eye[np.arange(8) ^ np.array([[4], [2], [1]])]
    noise = QuantumChannel(np.concatenate([math.sqrt(1.0 - 3.0 * p_flip) * eye[None],
                                           math.sqrt(p_flip) * flips]))

    # recovery: project on each syndrome sector {|s>, |7 - s>}, in the order
    # the basis meets them (syndromes 00, 01, 11, 10), then undo the flip the
    # syndrome indicates: none, or X on qubit 3, 2 or 1
    sectors = np.array([[0, 7], [1, 6], [2, 5], [3, 4]])
    projectors = np.zeros((4, 8, 8), dtype=np.complex128)
    projectors[np.arange(4)[:, None], sectors, sectors] = 1.0
    recovery = QuantumChannel(np.concatenate([eye[None], flips[::-1]]) @ projectors)
    # V is columns 0 and 7 of the identity
    return noise, recovery, QuantumChannel([eye[:, [0, 7]]])


@dataclass(frozen=True)
class ToolkitSweep:
    """Raw measurements of one seeded sweep over random states and channels."""

    max_contraction_violation: float   # worst d_out - d_in over n qubit pairs
    isometry: IsometryReport           # repetition code on 12 encoded states
    min_fannes_slack: float            # over n in-window qubit/qutrit pairs


def toolkit_sweep(n: int, rng: np.random.Generator) -> ToolkitSweep:
    """Contraction, code-distance preservation and Fannes slack on samples.

    Draws from ``rng`` in this order: n random qubit channels, each with a
    pair of qubit states; 12 logical states for the 3-qubit repetition code
    (``p_flip`` 0.15); n state pairs alternating qubit and qutrit.  A Fannes
    pair further apart than 1/e is pulled along the segment toward its first
    state until it sits at 0.9/e.  Samples are drawn and checked as stacks,
    in the order ``random_channel`` and ``random_density`` would draw them
    one at a time.
    """
    n = check_count("n", n, least=0)
    # per sample: a 6 x 2 complex isometry (24 normals), then two qubit states
    z = rng.normal(size=(n, 40))
    kraus = _isometry_kraus(z[:, :24], 2, 3)
    _check_kraus(kraus)
    a, b = _wishart(z[:, 24:32], 2, 2), _wishart(z[:, 32:], 2, 2)
    _check_densities(a)
    _check_densities(b)
    worst = float(_contraction_gaps(kraus, a, b).max(initial=-math.inf))

    noise, recovery, encoder = repetition_code_channels(0.15)
    code = [apply_channel(encoder, random_density(2, rng)) for _ in range(12)]
    iso = correctable_isometry_check(noise, recovery, code)

    # pair i is a qubit pair (16 normals) for even i, a qutrit pair (36) for odd i
    z = rng.normal(size=(n // 2, 52))
    qubits = z[:, :16]
    if n % 2:
        qubits = np.concatenate([qubits, rng.normal(size=(1, 16))])
    slacks = np.concatenate([_pulled_slacks(qubits, 2), _pulled_slacks(z[:, 16:], 3)])
    return ToolkitSweep(worst, iso, float(slacks.min(initial=math.inf)))


def _pulled_slacks(z: np.ndarray, dim: int) -> np.ndarray:
    """Fannes slacks of the state pairs drawn from rows of ``z``, pulled into the window."""
    a = _wishart(z[:, :2 * dim * dim], dim, dim)
    b = _wishart(z[:, 2 * dim * dim:], dim, dim)
    _check_densities(a)
    _check_densities(b)
    d = _trace_norms(a - b)
    far = d > FANNES_WINDOW
    t = (0.9 * FANNES_WINDOW / d[far])[:, None, None]
    b[far] = (1.0 - t) * a[far] + t * b[far]
    _check_densities(b[far])
    return _fannes_slacks(a, b, dim)
