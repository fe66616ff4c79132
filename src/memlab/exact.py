"""Exact numerics for small systems.

Markov generators over the full configuration space, CSR at every size
(column convention: ``G[y, x]`` is the rate x -> y, columns sum to zero),
their spectral gaps via Gibbs symmetrization, and a driven two-level master
equation with work/heat ledgers for protocols.  The stationary law of a
reversible generator is its Gibbs vector, checked rather than solved for.
A ``ProtocolSchedule`` merges its segments and jumps once into the steps
that the master solve and the trajectory sampler of ``thermo`` both walk;
the master solve is Gauss-Legendre panel quadrature, with no scipy.  The
scipy imports sit inside the functions that build and solve generators, so
``import memlab``, the Monte Carlo paths and the ledgers never load scipy.

The toric-code gap never needs the 2^(2L^2) matrix.  Its rates depend only
on the plaquette syndrome, so the symmetrized generator commutes with every
star flip and splits into one block of dimension 2^(L^2+1) per character of
the star group (Alicki, Fannes, Horodecki, arXiv:0810.4584).  The 8L^2
translations, rotations and reflections of the square torus map blocks onto
blocks with the same spectrum, so at L = 3 the gap takes 13 sparse solves of
size 1024, one per orbit, instead of one of size 262144.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._shared import check_count, check_real, flip_rates
from .lattice import LatticeModel, ising_energies

MAX_STATES = 1 << 20
DENSE_LIMIT = 512  # below it LAPACK, from it on eigsh: the faster one


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Transition-rate matrix of a model at fixed inverse temperature.

    Equality is identity, and the repr prints neither array.

    Attributes:
        matrix: (dim, dim) CSR matrix.
        energies: per-state energies defining the Gibbs weights.
        beta: inverse temperature the rates were built at.
        kind: model kind string.
        size: N (Ising kinds) or L (Kitaev2D).
    """

    matrix: object = field(repr=False)
    energies: np.ndarray = field(repr=False)
    beta: float
    kind: str
    size: int

    def __post_init__(self):
        import scipy.sparse as sp
        m = self.matrix
        if not (sp.issparse(m) and m.format == "csr" and m.shape[0] == m.shape[1]):
            raise ValueError(f"matrix must be a square CSR matrix, got {type(m).__name__}")
        if np.shape(self.energies) != m.shape[:1]:
            raise ValueError(f"energies must have shape {m.shape[:1]}, "
                             f"got {np.shape(self.energies)}")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def gibbs(self) -> np.ndarray:
        """Normalized Boltzmann vector e^{-beta E} / Z."""
        w = np.exp(-self.beta * (self.energies - self.energies.min()))
        return w / w.sum()


class _KitaevGenerator(GeneratorMatrix):
    """Kitaev2D generator whose energies and matrix are built on first read.

    :func:`spectral_gap` works from :class:`StarBlocks` and reads neither,
    so the gap costs no 2^(2L^2)-state arrays.
    """

    def __init__(self, model: LatticeModel, beta: float):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "kind", model.kind)
        object.__setattr__(self, "size", int(model.L))

    @functools.cached_property
    def energies(self) -> np.ndarray:
        return _flip_keys(self.model, np.arange(self.dimension, dtype=np.int64))[1]

    @functools.cached_property
    def matrix(self):
        return _assemble(self.model, self.beta)[0]

    @property
    def dimension(self) -> int:
        return 1 << self.model.N


def _flip_keys(model: LatticeModel, x: np.ndarray):
    """Class keys (len(x), N) of :func:`flip_rates` for each single flip from
    the states ``x``, and the states' energies (Kitaev2D: plaquette anyons).

    A state is a bitmask: a set bit is a down spin or a flipped edge.
    """
    if model.kind == "Kitaev2D":
        masks = [sum(1 << int(e) for e in edges) for edges in model.plaquette_edges]
        parity = np.stack([np.bitwise_count(x & m) & 1 for m in masks], axis=1)
        energies = parity.sum(axis=1).astype(np.float64)
        return parity[:, model.edge_plaquettes].sum(axis=2), energies
    spins = 1 - 2 * ((x[:, None] >> np.arange(model.N)) & 1)  # bit 0 -> spin +1
    field = 1 if model.kind == "IsingMeanField" else spins[:, model.neighbours].sum(axis=2)
    return spins * field, ising_energies(model, spins)


def _rates(model: LatticeModel, beta: float, keys: np.ndarray) -> np.ndarray:
    """The :func:`flip_rates` entry of each class key, for the mean-field kind
    at each state's magnetization M (a spin's key is the spin; M steps by 2)."""
    M = keys.sum(axis=1, keepdims=True) if model.kind == "IsingMeanField" else np.zeros((1, 1))
    m0 = int(M.min())
    tables = [flip_rates(model, beta, m) for m in range(m0, int(M.max()) + 1, 2)]
    k0 = min(tables[0])
    lut = np.zeros((len(tables), max(tables[0]) - k0 + 1))
    for j, table in enumerate(tables):
        for k, rate in table.items():
            lut[j, k - k0] = rate
    return lut[((M - m0) // 2).astype(np.intp), keys - k0]


def _assemble(model: LatticeModel, beta: float):
    """(CSR generator, energies) over all 2^N states: columns sum to zero."""
    import scipy.sparse as sp

    n = model.N
    dim = 1 << n
    x = np.arange(dim, dtype=np.int64)
    keys, energies = _flip_keys(model, x)
    rows = np.concatenate([x ^ (1 << i) for i in range(n)])
    cols = np.tile(x, n)
    vals = _rates(model, beta, keys).T.ravel()
    G = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    G.setdiag(-np.asarray(G.sum(axis=0)).ravel())
    return G, energies


def build_generator(model: LatticeModel, beta: float) -> GeneratorMatrix:
    """Full-state-space generator with the jump rates of the dynamics module.

    Ising kinds enumerate all 2^N spin states; Kitaev2D enumerates one error
    sector (2^(2L^2) edge sets), with energies that count plaquette anyons
    only (one flipped edge reads 2; ``lattice.energy`` counts both sectors,
    4).  Off-diagonal entry (y, x) is the ``_shared.flip_rates`` rate of the
    single flip taking x to y; diagonals make columns sum to zero.

    The Kitaev2D matrix and energies are built on first read of ``.matrix``
    or ``.energies``; :func:`spectral_gap` reads neither.

    Raises:
        ValueError: ``beta`` not finite and >= 0, or state space above 2^20 states.
    """
    beta = check_real("beta", beta, least=0)
    dim = 1 << model.N
    if dim > MAX_STATES:
        raise ValueError(f"state space of {dim} states is above the 2^20 limit")
    if model.kind == "Kitaev2D":
        return _KitaevGenerator(model, beta)
    return GeneratorMatrix(*_assemble(model, beta), beta, model.kind, int(model.N))


def _symmetric_part(S, scale: float):
    """(S + S^T) / 2 of a Gibbs-symmetrized generator, which must be symmetric already."""
    asym = abs(S - S.T).max()
    if asym > 1e-9 * scale:
        raise RuntimeError(f"generator is not reversible: symmetrization residual {asym:g}")
    return (S + S.T) * 0.5


def _symmetrized(G: GeneratorMatrix):
    import scipy.sparse as sp

    d = np.sqrt(G.gibbs())
    S = sp.diags(1.0 / d) @ G.matrix @ sp.diags(d)
    return _symmetric_part(S, np.abs(G.matrix.diagonal()).max() or 1.0), d


def _top_eigen(S, k: int, v0=None):
    """The k largest eigenvalues of a symmetric S, ascending.

    LAPACK strictly below ``DENSE_LIMIT`` states, ``eigsh`` at or above it,
    started from ``v0`` or else from a fixed vector, so repeated calls give
    the same digits.
    """
    if S.shape[0] < DENSE_LIMIT:
        return np.linalg.eigvalsh(S.toarray())[-k:]
    import scipy.sparse.linalg as spla

    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal(S.shape[0])
    return np.sort(spla.eigsh(S, k=k, which="LA", v0=v0, return_eigenvectors=False))


class StarBlocks:
    """Star-character blocks of the Gibbs-symmetrized Kitaev2D generator.

    Flipping the four edges of a star leaves every plaquette syndrome, and so
    every rate and energy, unchanged.  The edge sets therefore split into
    cosets of the star group (2^(L^2-1) elements, since the product of all
    stars is the identity), and the symmetrized generator splits into one
    block per group character.  A character is an even star subset chi and
    takes the value (-1)^|c & chi| on the star combination c.

    Coset representatives are the edge sets that avoid the pivot edges of the
    star masks in reduced echelon form.  Flipping edge e maps representative
    r to r ^ ``flip[e]`` up to the star combination ``combo[e]`` (nonzero
    only for pivot edges), so block chi has entry
    rate * sqrt(pi_r / pi_r') * (-1)^|combo[e] & chi| at (r', r) and minus
    the exit rate of r on the diagonal.

    Attributes:
        model: the Kitaev2D lattice.
        beta: inverse temperature.
        reps: coset representatives as edge bitmasks, one per block row.
        energies: plaquette anyon count of each representative, as in
            :func:`build_generator` (``lattice.energy`` counts both sectors).
        characters: the even star subsets as star bitmasks, one per block.
        flip: per edge, the mask that takes each representative to the
            representative of its edge-flipped coset.
        combo: per edge, the star combination that this step drops.
    """

    def __init__(self, model: LatticeModel, beta: float):
        if model.kind != "Kitaev2D":
            raise ValueError(f"star blocks need a Kitaev2D model, got {model.kind!r}")
        self.model, self.beta = model, check_real("beta", beta, least=0)
        n_e, n_s = model.N, model.L * model.L
        # reduced echelon form of the star masks: pivot -> (row mask, star combination)
        basis = {}
        for s in range(n_s):
            row, comb = 0, 1 << s
            for e in model.star_edges[s]:
                row ^= 1 << int(e)
            for p, (r, c) in basis.items():
                if row >> p & 1:
                    row, comb = row ^ r, comb ^ c
            if row:
                p = row.bit_length() - 1
                for q, (r, c) in basis.items():
                    if r >> p & 1:
                        basis[q] = (r ^ row, c ^ comb)
                basis[p] = (row, comb)
        self.flip = np.array([(1 << e) ^ basis.get(e, (0, 0))[0] for e in range(n_e)],
                             dtype=np.int64)
        self.combo = np.array([basis.get(e, (0, 0))[1] for e in range(n_e)], dtype=np.int64)
        self._free = np.array([e for e in range(n_e) if e not in basis], dtype=np.int64)
        k = np.arange(1 << self._free.size, dtype=np.int64)
        self.reps = np.bitwise_or.reduce(((k[:, None] >> np.arange(self._free.size)) & 1)
                                         << self._free, axis=1)
        chars = np.arange(1 << n_s, dtype=np.int64)
        self.characters = chars[np.bitwise_count(chars) % 2 == 0]

        keys, self.energies = _flip_keys(model, self.reps)
        rates = _rates(model, self.beta, keys)
        n = self.reps.size
        src = np.arange(n, dtype=np.int64)
        rows, vals, exit_rate = [], [], np.zeros(n)
        for e in range(n_e):
            dst = self._index(self.reps ^ self.flip[e])
            rate = rates[:, e]
            exit_rate += rate
            rows.append(dst)
            vals.append(rate * np.exp(0.5 * self.beta * (self.energies[dst] - self.energies)))
        self._rows = np.concatenate(rows + [src])
        self._cols = np.concatenate([np.tile(src, n_e), src])
        self._vals = np.concatenate(vals + [-exit_rate])
        self._scale = exit_rate.max() or 1.0

    def _index(self, reps: np.ndarray) -> np.ndarray:
        """Row index of each representative (its bits on the free edges)."""
        bits = (reps[:, None] >> self._free) & 1
        return bits @ (1 << np.arange(self._free.size, dtype=np.int64))

    def block(self, chi: int):
        """Symmetric CSR block of character ``chi`` (an even star bitmask).

        Raises:
            ValueError: ``chi`` is not a non-bool integer below 2^(L^2) with
                an even number of set bits.
            RuntimeError: the rates break detailed balance, so the block
                is not symmetric.
        """
        import scipy.sparse as sp

        n_s = self.model.L * self.model.L
        c = check_count("chi", chi, 0)
        if c >> n_s or c.bit_count() % 2:
            raise ValueError(f"chi must be an even star bitmask below 2^{n_s}, got {chi!r}")
        # bitwise_count returns uint8: cast before 1 - 2 * count or -1 wraps to 255
        odd = np.bitwise_count(self.combo & c).astype(np.int64) & 1
        n = self.reps.size
        sign = np.concatenate([np.repeat(1 - 2 * odd, n), np.ones(n, dtype=np.int64)])
        B = sp.coo_matrix((self._vals * sign, (self._rows, self._cols)), shape=(n, n)).tocsr()
        return _symmetric_part(B, self._scale)

    def orbits(self) -> list:
        """Characters grouped under the 8L^2 symmetries of the square torus,
        the trivial orbit first.

        Each symmetry is a translation after one of the vertex maps
        (x, y) -> (+-x, +-y), (+-y, +-x).  Each permutes the stars, edges and
        plaquettes, so it commutes with the generator, and all blocks of one
        orbit have the same spectrum.  Each orbit lists its smallest bitmask
        first.
        """
        L = self.model.L
        s = np.arange(L * L)
        x, y = s % L, s // L
        bits = (self.characters[:, None] >> s) & 1
        canon = self.characters
        for (u, v), sx, sy, dx, dy in itertools.product(
                ((x, y), (y, x)), (1, -1), (1, -1), range(L), range(L)):
            image = (sy * v + dy) % L * L + (sx * u + dx) % L  # star s goes to image[s]
            canon = np.minimum(canon, bits @ (1 << image))
        return [self.characters[canon == c] for c in np.unique(canon)]

    def gap(self) -> float:
        """Spectral gap of the full generator: the trivial block's second
        eigenvalue against the top eigenvalue of one block per non-trivial
        orbit of :meth:`orbits`."""
        trivial, *others = self.orbits()
        gap = -_top_eigen(self.block(trivial[0]), 2)[0]
        for orbit in others:
            gap = min(gap, -_top_eigen(self.block(orbit[0]), 1)[0])
        return float(max(gap, 0.0))


def stationary_distribution(G: GeneratorMatrix) -> np.ndarray:
    """Stationary law of a reversible generator: its Gibbs vector, checked.

    Detailed balance makes e^{-beta E} / Z stationary, so nothing is solved:
    an eigensolver cannot tell nearly degenerate ground states apart at low
    temperature and returns a mix of them.  The Gibbs symmetrization rejects
    rates that break detailed balance, and the residual |G pi| must vanish.

    Raises:
        RuntimeError: the rates are not reversible, or G pi does not vanish.
    """
    _symmetrized(G)
    pi = G.gibbs()
    resid = np.abs(G.matrix @ pi).max()
    if resid > 1e-8:
        raise RuntimeError(f"Gibbs vector is not stationary: residual {resid:g}")
    return pi


def spectral_gap(G: GeneratorMatrix) -> float:
    """|second-largest eigenvalue| of the generator via Gibbs symmetrization.

    A Kitaev2D generator from :func:`build_generator` is solved block by
    block through :class:`StarBlocks`, without its full matrix; any other
    generator, including a hand-built Kitaev2D one, is solved whole.
    """
    if isinstance(G, _KitaevGenerator):
        return StarBlocks(G.model, G.beta).gap()
    S, d = _symmetrized(G)
    return float(max(-_top_eigen(S, 2, v0=d)[0], 0.0))


# ---------------------------------------------------------------------------
# driven two-level system


@dataclass(frozen=True)
class Segment:
    """Piecewise-linear schedule interval.

    Energies move linearly from ``eps0[0]``/``eps1[0]`` at ``t0`` to
    ``eps0[1]``/``eps1[1]`` at ``t1``.  When ``coupled`` is false the bath
    does not act (populations freeze).
    """

    t0: float
    t1: float
    eps0: tuple
    eps1: tuple
    coupled: bool = True

    def __post_init__(self):
        for name in ("t0", "t1"):  # numbers, so that they compare; finite by the schedule
            check_real(name, getattr(self, name), inf=True)
        if not self.t1 > self.t0:
            raise ValueError("segment needs t1 > t0")

    @functools.cached_property
    def slopes(self) -> tuple:
        """(d eps0/dt, d eps1/dt) inside the segment."""
        T = self.t1 - self.t0
        return (self.eps0[1] - self.eps0[0]) / T, (self.eps1[1] - self.eps1[0]) / T

    def energies(self, t) -> tuple:
        """(eps0, eps1) at time ``t`` inside the segment."""
        de0, de1 = self.slopes
        dt = t - self.t0
        return self.eps0[0] + de0 * dt, self.eps1[0] + de1 * dt


@dataclass(frozen=True)
class Jump:
    """Instantaneous energy move at time t, from/to explicit values.

    Sudden quenches are explicit events: they do work p_i * delta_eps_i on
    whatever population sits on each level, and the bath has no time to act.
    ``eps0`` and ``eps1`` are (before, after) pairs, mirroring Segment's
    (start, end) convention.
    """

    t: float
    eps0: tuple
    eps1: tuple

    coupled = False  # a zero-length step: populations stay frozen
    t0 = t1 = property(lambda self: self.t)

    def energies(self, t) -> tuple:
        """(eps0, eps1) from the jump on."""
        return self.eps0[1], self.eps1[1]


@dataclass(frozen=True)
class ProtocolSchedule:
    """Contiguous segments plus explicit jumps for a driven two-level system.

    ``steps`` is the timeline that every consumer walks, merged once here:
    the jumps at ``t_start``, then each segment followed by the jumps at its
    end.  Times and energies must be finite reals by the number rule, and
    ``gamma`` and ``beta`` positive ones.
    """

    segments: tuple
    jumps: tuple = ()
    gamma: float = 1.0
    beta: float = 1.0
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "jumps", tuple(self.jumps))
        for name in ("gamma", "beta"):
            check_real(name, getattr(self, name), above=0)
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        for name in ("segments", "jumps"):
            for i, step in enumerate(getattr(self, name)):
                for v in (step.t0, step.t1, *step.eps0, *step.eps1):
                    check_real(f"{name}[{i}] time or energy", v)
        if any(a.t > b.t for a, b in zip(self.jumps[:-1], self.jumps[1:])):
            raise ValueError("jumps must be time-ordered")
        steps, todo = [], list(self.jumps)[::-1]  # the next jump last

        def take(step):  # an energy mismatch between steps is a hidden quench
            if steps and (abs(steps[-1].eps0[1] - step.eps0[0]) > 1e-9
                          or abs(steps[-1].eps1[1] - step.eps1[0]) > 1e-9):
                raise ValueError(
                    "schedule discontinuity inside a coupled interval; "
                    "sudden moves must be declared as explicit jumps")
            steps.append(step)

        t = self.segments[0].t0
        for seg in self.segments + (None,):
            while todo and abs(todo[-1].t - t) < 1e-12:
                take(todo.pop())
            if seg is None:
                break
            if abs(seg.t0 - t) > 1e-12:
                raise ValueError("segments must be contiguous in time")
            if todo and todo[-1].t < seg.t1 - 1e-12:
                raise ValueError("jumps must sit on segment boundaries")
            take(seg)
            t = seg.t1
        if todo:
            raise ValueError("jumps must sit on segment boundaries")
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def t_start(self) -> float:
        return self.segments[0].t0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1

    @property
    def start_energies(self) -> tuple:
        """(eps0, eps1) before the first step."""
        return self.steps[0].eps0[0], self.steps[0].eps1[0]


def two_level_rates(delta, gamma: float, beta: float, convention: str = "heat-bath"):
    """(up rate 0->1, down rate 1->0) for level splitting ``delta``, a float
    or an ndarray.

    With u = e^{-beta |delta|}, the downhill rate is gamma / (1 + u) under
    heat bath (the two rates sum to gamma) and gamma under Metropolis; the
    uphill rate is u times the downhill one, the instantaneous Gibbs ratio.
    """
    x = beta * delta
    if type(x) is np.ndarray:  # an identity test keeps the scalar path fast
        return _rates_from(x, np.exp(-np.abs(x)), gamma, convention)
    return _rates_from(x, math.exp(-abs(x)), gamma, convention)


def _rates_from(x, u, gamma: float, convention: str):
    """The rate law of :func:`two_level_rates` at x = beta * delta, given
    u = e^{-|x|}, on floats or arrays.  The entropy-production sampler steps
    arrays but takes u from ``math.exp``, the float path's exponential, which
    ``np.exp`` does not match in the last bit."""
    if convention == "heat-bath":
        downhill = gamma / (1.0 + u)
    elif convention == "metropolis":
        downhill = gamma
    else:
        raise ValueError(f"unknown rate convention: {convention!r} "
                         "(rates must be 'heat-bath' or 'metropolis')")
    uphill = downhill * u
    if type(x) is np.ndarray:
        return np.where(x >= 0.0, uphill, downhill), np.where(x >= 0.0, downhill, uphill)
    return (uphill, downhill) if x >= 0.0 else (downhill, uphill)


@dataclass(frozen=True)
class SegmentRecord:
    """Ledger line of one schedule interval (or jump): energy bookkeeping."""

    label: str
    t0: float
    t1: float
    work: float
    heat: float
    delta_u: float


@dataclass(frozen=True, eq=False)
class MasterSolution:
    """Time-resolved populations and the work/heat ledger of a protocol;
    equality is identity.

    ``work`` is done on the system and ``heat`` flows into it, so both are
    positive when energy enters; ``delta_u`` is U(end) - U(start), and
    ``segments`` holds one SegmentRecord per interval or jump.
    """

    ts: np.ndarray
    ps: np.ndarray       # (K, 2) populations
    eps: np.ndarray      # (K, 2) level energies
    work: float
    heat: float
    delta_u: float
    segments: tuple
    p_final: np.ndarray

    @property
    def extracted_work(self) -> float:
        return -self.work

    def first_law_residual(self) -> float:
        """Worst relative |dU - W - Q| over the whole run and each segment:
        zero up to quadrature rounding, the ledger invariant."""
        return max(abs(du - w - q) / max(abs(du), abs(w), abs(q), 1.0)
                   for du, w, q in [(self.delta_u, self.work, self.heat)]
                   + [(s.delta_u, s.work, s.heat) for s in self.segments])


PANEL_NODES = 24  # Gauss-Legendre nodes per quadrature panel
MAX_PANELS = 1 << 20
_PANEL_CHUNK = 256  # panels per array pass: bounds memory on long schedules, and is faster


@functools.cache
def _gauss_panel():
    """Gauss-Legendre nodes and weights on [0, 1], and the transposed spectral
    matrix that maps node values to the integrals from 0 to each node."""
    from numpy.polynomial import legendre as leg

    xi, w = leg.leggauss(PANEL_NODES)
    to_coef = np.linalg.inv(leg.legvander(xi, PANEL_NODES - 1))
    antiderivative = leg.legvander(xi, PANEL_NODES) @ leg.legint(np.eye(PANEL_NODES), lbnd=-1)
    return (xi + 1.0) / 2.0, w / 2.0, (antiderivative @ to_coef).T / 2.0


def _solve_panels(h, delta, slope, q, gamma, beta, rates):
    """q1 at the ends of consecutive panels from q1 = ``q``, and per panel the
    integrals of q1 and of the heat flow (eps1 - eps0) dq1/dt.  Panel i is
    ``h[i]`` long and starts at splitting ``delta[i]``, moving at ``slope[i]``.
    With B = int b from the panel start, q1 = e^{-B} (q1_start + int a e^B)."""
    s, w, cumulative = _gauss_panel()
    out = []
    for lo in range(0, len(h) or 1, _PANEL_CHUNK):
        hn = h[lo:lo + _PANEL_CHUNK, None]
        d = delta[lo:lo + _PANEL_CHUNK, None] + slope[lo:lo + _PANEL_CHUNK, None] * (hn * s)
        a, down = two_level_rates(d, gamma, beta, rates)
        b = a + down
        B = (b @ cumulative) * hn
        f = a * np.exp(B)
        decay = np.exp(-(b @ w) * hn[:, 0])
        ends = list(itertools.accumulate(zip(decay.tolist(), (decay * (f @ w) * hn[:, 0]).tolist()),
                                         lambda q1, dc: dc[0] * q1 + dc[1], initial=q))
        q = ends[-1]
        q1 = np.exp(-B) * (np.array(ends[:-1])[:, None] + (f @ cumulative) * hn)
        out.append((ends[1:], (q1 @ w) * hn[:, 0], ((d * (a - b * q1)) @ w) * hn[:, 0]))
    return [np.concatenate(v) for v in zip(*out)]


def integrate_master(schedule: ProtocolSchedule, p0,
                     rates: str = "heat-bath") -> MasterSolution:
    """Solve the two-level master equation along the schedule's steps, with
    work/heat ledgers.

    The upper population q1 (p0 = 1 - q1, so normalization is exact) obeys
    dq1/dt = a - b q1 on a coupled segment (a = up, b = up + down), solved by
    24-node Gauss-Legendre quadrature on panels: the 32-interval output grid,
    each interval split to width <= 1 / (2 max b) and to a splitting change
    <= 4 / beta, plus a break where the splitting changes sign (a kink of the
    Metropolis rates).  One array pass covers every panel of the schedule; a
    scalar recurrence carries q1 across panels, and jumps and decoupled
    segments freeze it.  Work is sum_i delta(eps_i) times the mean p_i of a
    step, eps0' T + (eps1' - eps0') int q1 on a coupled segment; heat is its
    own quadrature of (eps1 - eps0) dq1/dt, so dU = W + Q is a check.

    Raises:
        ValueError: unknown ``rates``, ``p0`` not a finite 2-state probability
            vector, or more than ``MAX_PANELS`` panels.
    """
    gamma, beta = schedule.gamma, schedule.beta
    b_max = sum(two_level_rates(0.0, gamma, beta, rates))  # b peaks at zero splitting
    p = [check_real("p0", v, least=0, most=1) for v in p0] if np.ndim(p0) == 1 else []
    if len(p) != 2 or abs(p[0] + p[1] - 1.0) > 1e-9:
        raise ValueError(f"p0 must be a finite 2-state probability vector, got {p0!r}")
    p1 = p[1]

    # panels of every coupled segment in time order, timed from the segment start
    coupled = [s for s in schedule.steps if s.coupled]
    T, d0, dd = np.array([(s.t1 - s.t0, s.eps1[0] - s.eps0[0], s.slopes[1] - s.slopes[0])
                          for s in coupled]).reshape(-1, 3).T
    m = np.ceil(np.maximum(2.0 * b_max, beta * np.abs(dd) / 4.0) * T / 32).clip(1)
    if 32 * m.sum() > MAX_PANELS:
        raise ValueError(f"schedule needs {32 * m.sum():.3g} quadrature panels, above the "
                         f"limit of {MAX_PANELS}: gamma times its duration is too large")
    n = 32 * m.astype(np.int64)  # m panels per output interval
    seg = np.repeat(np.arange(len(coupled)), n)
    k = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
    tl, tr = (T[seg] * (j / n[seg]) for j in (k, k + 1))
    on_grid = (k + 1) % (n // 32)[seg] == 0
    dl, dr = (d0[seg] + dd[seg] * t for t in (tl, tr))
    cut = np.flatnonzero(np.sign(dl) * np.sign(dr) < 0)
    kink = tl[cut] - dl[cut] * (tr[cut] - tl[cut]) / (dr[cut] - dl[cut])
    tl, tr = np.insert(tl, cut + 1, kink), np.insert(tr, cut, kink)
    seg, on_grid = np.insert(seg, cut, seg[cut]), np.insert(on_grid, cut, False)
    q_end, q_int, heat_flow = _solve_panels(tr - tl, d0[seg] + dd[seg] * tl, dd[seg], p1,
                                            gamma, beta, rates)
    per_segment = zip(q_end[on_grid].reshape(-1, 32),
                      (np.bincount(seg, q_int, len(coupled)) / T).tolist(),
                      np.bincount(seg, heat_flow, len(coupled)).tolist())

    eps = schedule.start_energies
    u_first = (1.0 - p1) * eps[0] + p1 * eps[1]
    ts, qs, eps_track = [np.array([schedule.t_start])], [np.array([p1])], [np.array([eps])]
    records, work_total, heat_total = [], 0.0, 0.0
    for step in schedule.steps:
        u_before = (1.0 - p1) * eps[0] + p1 * eps[1]
        if step.coupled:
            grid = np.linspace(step.t0, step.t1, 33)[1:]
            q1s, q_mean, heat = next(per_segment)
            label = "coupled"
        else:  # populations frozen: no heat, and dU = W
            q_mean, heat, label = p1, 0.0, "jump" if isinstance(step, Jump) else "decoupled"
            grid = np.array([step.t]) if label == "jump" else np.linspace(step.t0, step.t1, 9)[1:]
            q1s = np.full(grid.size, p1)
        w = (1.0 - q_mean) * (step.eps0[1] - step.eps0[0]) + q_mean * (step.eps1[1] - step.eps1[0])
        p1 = float(q1s[-1])
        du = (1.0 - p1) * step.eps0[1] + p1 * step.eps1[1] - u_before if step.coupled else w
        records.append(SegmentRecord(label, step.t0, step.t1, w, heat, du))
        work_total += w
        heat_total += heat
        ts.append(grid)
        qs.append(q1s)
        # a jump's energies are two floats
        eps_track.append(np.column_stack(np.broadcast_arrays(*step.energies(grid), grid)[:2]))
        eps = (step.eps0[1], step.eps1[1])

    q = np.concatenate(qs)
    u_last = (1.0 - p1) * eps[0] + p1 * eps[1]
    return MasterSolution(np.concatenate(ts), np.column_stack([1.0 - q, q]),
                          np.concatenate(eps_track), work_total, heat_total,
                          u_last - u_first, tuple(records), np.array([1.0 - p1, p1]))
