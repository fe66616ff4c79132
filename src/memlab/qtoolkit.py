"""Small density-matrix numerics: entropy, trace distance, CP maps.

Covers the contraction property of channels, correctable-code distance
preservation, the erasure entropy balance, and the Fannes continuity bound
with its validity window.  Everything is dense and dimension-capped; inputs
are explicitly symmetrized before any Hermitian factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 64
LN2 = math.log(2.0)
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
CONTRACTION_TOL = 1e-10
ISOMETRY_TOL = 1e-8
FANNES_WINDOW = 1.0 / math.e


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive matrix of dimension at most 64."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if m.shape[0] > MAX_DIM:
            raise ValueError(f"dimension {m.shape[0]} above the cap of {MAX_DIM}")
        if np.abs(m - m.conj().T).max() > HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        if abs(m.trace().real - 1.0) > TRACE_TOL or abs(m.trace().imag) > TRACE_TOL:
            raise ValueError("trace must equal 1")
        if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -EIG_TOL:
            raise ValueError("matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        m = self.matrix
        return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form."""

    kraus: tuple

    def __post_init__(self):
        ks = tuple(np.array(k, dtype=np.complex128) for k in self.kraus)
        if not ks:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks):
            raise ValueError("Kraus operators must share one shape")
        comp = sum(k.conj().T @ k for k in ks)
        if np.abs(comp - np.eye(shape[1])).max() > COMPLETENESS_TOL:
            raise ValueError("Kraus completeness sum deviates from identity")
        for k in ks:
            k.flags.writeable = False
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy in nats, with 0 ln 0 = 0."""
    lam = np.clip(rho.eigenvalues(), 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Full trace norm of rho - sigma; ranges over [0, 2]."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    diff = rho.matrix - sigma.matrix
    lam = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(np.abs(lam).sum())


def _apply(channel: QuantumChannel, matrix: np.ndarray) -> np.ndarray:
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=np.complex128)
    for k in channel.kraus:
        out += k @ matrix @ k.conj().T
    return 0.5 * (out + out.conj().T)


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
    if rho.dim != channel.dim_in:
        raise ValueError("state dimension does not match the channel input")
    out = DensityMatrix(_apply(channel, rho.matrix))
    if check_pairs is None:
        return out
    worst = -math.inf
    n = 0
    for a, b in check_pairs:
        d_in = trace_distance(a, b)
        d_out = trace_distance(DensityMatrix(_apply(channel, a.matrix)),
                               DensityMatrix(_apply(channel, b.matrix)))
        worst = max(worst, d_out - d_in)
        n += 1
    if n == 0:
        worst = 0.0
    return out, ContractionReport(n, worst, worst <= CONTRACTION_TOL)


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
    states = list(code_states)
    failures = []
    for i, rho in enumerate(states):
        rt = DensityMatrix(_apply(recovery, _apply(channel, rho.matrix)))
        dev = trace_distance(rt, rho)
        if dev > ISOMETRY_TOL:
            failures.append((i, dev))
    if failures:
        return IsometryReport(False, tuple(failures), 0, math.inf, False)
    worst = 0.0
    n = 0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            d_id = trace_distance(states[i], states[j])
            d_t = trace_distance(DensityMatrix(_apply(channel, states[i].matrix)),
                                 DensityMatrix(_apply(channel, states[j].matrix)))
            worst = max(worst, abs(d_t - d_id))
            n += 1
    return IsometryReport(True, (), n, worst, worst <= ISOMETRY_TOL)


def fannes_allowance(eps: float, dim: int) -> float:
    """Entropy change the Fannes bound permits at trace distance eps: eps ln D - eps ln eps."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return 0.0
    return eps * math.log(dim) - eps * math.log(eps)


def fannes_check(rho: DensityMatrix, sigma: DensityMatrix, dim: int) -> float:
    """Slack of the Fannes continuity bound; nonnegative inside its window.

    Returns [d ln D - d ln d] - |S(rho) - S(sigma)| with d the trace
    distance.  Only valid for d <= 1/e, where -x ln x is still monotone;
    larger distances are rejected rather than evaluated.
    """
    d = trace_distance(rho, sigma)
    if d > FANNES_WINDOW + 1e-12:
        raise ValueError(f"trace distance {d:.4f} is outside the Fannes "
                         f"validity window (<= 1/e)")
    return fannes_allowance(d, dim) - abs(entropy(rho) - entropy(sigma))


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
    r = dim if rank is None else rank
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> QuantumChannel:
    """Haar-style random channel from a QR-orthonormalized stacked isometry."""
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(g)
    return QuantumChannel(tuple(q[i * dim:(i + 1) * dim] for i in range(n_kraus)))


def depolarizing_channel(dim: int) -> QuantumChannel:
    """The constant map onto the maximally mixed state."""
    ks = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=np.complex128)
            k[i, j] = 1.0 / math.sqrt(dim)
            ks.append(k)
    return QuantumChannel(tuple(ks))


def repetition_code_channels(p_flip: float = 0.15):
    """(noise, recovery, encoder) for the 3-bit repetition code.

    The noise channel flips at most one qubit (probability ``p_flip`` for
    each single flip); recovery measures the parity syndrome and undoes the
    indicated flip.  ``encoder`` maps logical qubit states into the code
    space: rho -> V rho V^dagger with V = |000><0| + |111><1|.
    """
    if not 0.0 <= p_flip <= 1.0 / 3.0:
        raise ValueError("p_flip must lie in [0, 1/3]")
    dim = 8
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    eye2 = np.eye(2, dtype=np.complex128)
    flips = [np.kron(np.kron(x, eye2), eye2),
             np.kron(np.kron(eye2, x), eye2),
             np.kron(np.kron(eye2, eye2), x)]
    kraus_t = [math.sqrt(1.0 - 3.0 * p_flip) * np.eye(dim, dtype=np.complex128)]
    kraus_t += [math.sqrt(p_flip) * f for f in flips]
    noise = QuantumChannel(tuple(kraus_t))

    # recovery: project on each syndrome sector, then undo the matching flip
    def bits(i):
        return (i >> 2) & 1, (i >> 1) & 1, i & 1

    sectors = {}  # syndrome -> list of basis states
    for i in range(dim):
        b = bits(i)
        syn = (b[0] ^ b[1], b[1] ^ b[2])
        sectors.setdefault(syn, []).append(i)
    correction = {(0, 0): np.eye(dim, dtype=np.complex128),
                  (1, 0): flips[0], (1, 1): flips[1], (0, 1): flips[2]}
    kraus_r = []
    for syn, states in sectors.items():
        p = np.zeros((dim, dim), dtype=np.complex128)
        for i in states:
            p[i, i] = 1.0
        kraus_r.append(correction[syn] @ p)
    recovery = QuantumChannel(tuple(kraus_r))

    v = np.zeros((8, 2), dtype=np.complex128)
    v[0, 0] = 1.0
    v[7, 1] = 1.0
    encoder = QuantumChannel((v,))
    return noise, recovery, encoder


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
    state until it sits at 0.9/e.
    """
    worst = -math.inf
    for _ in range(n):
        ch = random_channel(2, 3, rng)
        a, b = random_density(2, rng), random_density(2, rng)
        _, rep = apply_channel(ch, a, check_pairs=[(a, b)])
        worst = max(worst, rep.max_violation)

    noise, recovery, encoder = repetition_code_channels(0.15)
    code = [apply_channel(encoder, random_density(2, rng)) for _ in range(12)]
    iso = correctable_isometry_check(noise, recovery, code)

    min_slack = math.inf
    for i in range(n):
        dim = 2 if i % 2 == 0 else 3
        a, b = random_density(dim, rng), random_density(dim, rng)
        d = trace_distance(a, b)
        if d > FANNES_WINDOW:
            t = 0.9 * FANNES_WINDOW / d
            b = DensityMatrix((1.0 - t) * a.matrix + t * b.matrix)
        min_slack = min(min_slack, fannes_check(a, b, dim))
    return ToolkitSweep(worst, iso, min_slack)
