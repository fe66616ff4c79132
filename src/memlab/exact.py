"""Exact numerics for small systems.

Markov generators over the full configuration space (column convention:
``G[y, x]`` is the rate x -> y, columns sum to zero), their spectral gaps
via Gibbs symmetrization, and a driven two-level master equation with
work/heat integration for protocol ledgers.  The stationary law of a
reversible generator is its Gibbs vector, checked rather than solved for.
A ``ProtocolSchedule`` merges its segments and jumps once into the steps
that the integrator and the trajectory sampler of ``thermo`` both walk.
The scipy imports sit inside the functions that build and solve, so
``import memlab`` and the Monte Carlo paths never load scipy.

The toric-code gap never needs the 2^(2L^2) matrix.  Its rates depend only
on the plaquette syndrome, so the symmetrized generator commutes with every
star flip and splits into one block of dimension 2^(L^2+1) per character of
the star group; lattice translations map blocks onto blocks with the same
spectrum (Alicki, Fannes, Horodecki, arXiv:0810.4584).  At L = 3 the gap
takes 32 sparse solves of size 1024 instead of one of size 262144.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._shared import heat_bath
from .lattice import LatticeModel

MAX_STATES = 1 << 20
DENSE_LIMIT = 512  # below it dense storage and LAPACK; from it on CSR and eigsh, the faster one


@dataclass(frozen=True)
class GeneratorMatrix:
    """Transition-rate matrix of a model at fixed inverse temperature.

    Attributes:
        matrix: (dim, dim) ndarray, or CSR matrix above the dense limit.
        energies: per-state energies defining the Gibbs weights.
        beta: inverse temperature the rates were built at.
        kind: model kind string.
        size: N (Ising kinds) or L (Kitaev2D).
    """

    matrix: object
    energies: np.ndarray
    beta: float
    kind: str
    size: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_sparse(self) -> bool:
        return not isinstance(self.matrix, np.ndarray)

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
        x = np.arange(self.dimension, dtype=np.int64)
        return _plaquette_parity(self.model, x).sum(axis=1).astype(np.float64)

    @functools.cached_property
    def matrix(self):
        return _assemble(*_kitaev_generator(self.model, self.beta), self.dimension)

    @property
    def dimension(self) -> int:
        return 1 << self.model.N

    @property
    def is_sparse(self) -> bool:
        return self.dimension >= DENSE_LIMIT

    def __repr__(self) -> str:
        # the dataclass repr would print, and so build, the whole matrix
        return f"{type(self).__name__}(kind={self.kind!r}, size={self.size}, beta={self.beta})"


def _spin_matrix(n_states: int, n: int) -> np.ndarray:
    x = np.arange(n_states, dtype=np.int64)
    bits = (x[:, None] >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(np.float64)  # bit 0 -> spin +1


def _ising_generator(model: LatticeModel, beta: float):
    n = model.N
    dim = 1 << n
    spins = _spin_matrix(dim, n)
    J = model.J
    if model.kind == "IsingMeanField":
        M = spins.sum(axis=1)
        energies = -(J / (2 * n)) * M**2
        delta = (2.0 * J / n) * (spins * M[:, None] - 1.0)
    else:  # nearest neighbours; the table counts every bond twice
        field = spins[:, model.neighbours].sum(axis=2)
        energies = -0.5 * J * np.sum(spins * field, axis=1)
        delta = 2.0 * J * spins * field
    with np.errstate(over="ignore"):
        rates = 1.0 / (1.0 + np.exp(beta * delta))
    x = np.arange(dim, dtype=np.int64)
    rows = np.concatenate([x ^ (1 << i) for i in range(n)])
    cols = np.tile(x, n)
    vals = rates.T.ravel()
    return rows, cols, vals, energies


def _plaquette_parity(model: LatticeModel, x: np.ndarray) -> np.ndarray:
    """(len(x), L^2) plaquette syndrome bits of the edge sets ``x`` (bitmasks)."""
    L2 = model.L * model.L
    parity = np.empty((x.size, L2), dtype=np.int8)
    for p in range(L2):
        mask = 0
        for e in model.plaquette_edges[p]:
            mask |= 1 << int(e)
        parity[:, p] = np.bitwise_count(x & mask) & 1
    return parity


def _kitaev_rates(model: LatticeModel, beta: float, parity: np.ndarray, e: int):
    """Flip rate of edge ``e`` from states with the given plaquette parity."""
    p1, p2 = model.edge_plaquettes[e]
    rate_by_key = np.array([math.exp(-2.0 * beta), model.move_rate, 1.0])
    return rate_by_key[parity[:, p1] + parity[:, p2]]


def _kitaev_generator(model: LatticeModel, beta: float):
    """One-sector toric code: states are X-error sets, energies count plaquette anyons."""
    n_e = model.N
    x = np.arange(1 << n_e, dtype=np.int64)
    parity = _plaquette_parity(model, x)
    rows = np.concatenate([x ^ (1 << e) for e in range(n_e)])
    cols = np.tile(x, n_e)
    vals = np.concatenate([_kitaev_rates(model, beta, parity, e) for e in range(n_e)])
    return rows, cols, vals


def _assemble(rows, cols, vals, dim: int):
    """Generator from off-diagonal rates: columns sum to zero, dense below the limit."""
    import scipy.sparse as sp

    G = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    G.setdiag(-np.asarray(G.sum(axis=0)).ravel())
    return G.toarray() if dim < DENSE_LIMIT else G


def build_generator(model: LatticeModel, beta: float) -> GeneratorMatrix:
    """Full-state-space generator with the jump rates of the dynamics module.

    Ising kinds enumerate all 2^N spin states; Kitaev2D enumerates one error
    sector (2^(2L^2) edge sets).  Off-diagonal entry (y, x) is the rate of the
    single flip taking x to y; diagonals make columns sum to zero.

    The Kitaev2D matrix and energies are built on first read of ``.matrix``
    or ``.energies``; :func:`spectral_gap` reads neither.

    Raises:
        ValueError: state space above 2^20 states.
    """
    dim = 1 << model.N
    if dim > MAX_STATES:
        raise ValueError(f"state space of {dim} states is above the 2^20 limit")
    if model.kind == "Kitaev2D":
        return _KitaevGenerator(model, beta)
    rows, cols, vals, energies = _ising_generator(model, beta)
    return GeneratorMatrix(_assemble(rows, cols, vals, dim), energies, float(beta),
                           model.kind, int(model.N))


def _symmetric_part(S, scale: float):
    """(S + S^T) / 2 of a Gibbs-symmetrized generator, which must be symmetric already."""
    asym = abs(S - S.T).max()
    if asym > 1e-9 * scale:
        raise RuntimeError(f"generator is not reversible: symmetrization residual {asym:g}")
    return (S + S.T) * 0.5


def _symmetrized(G: GeneratorMatrix):
    d = np.sqrt(G.gibbs())
    if G.is_sparse:
        import scipy.sparse as sp

        S = sp.diags(1.0 / d) @ G.matrix @ sp.diags(d)
    else:
        S = G.matrix * (d[None, :] / d[:, None])
    return _symmetric_part(S, np.abs(G.matrix.diagonal()).max() or 1.0), d


def _top_eigen(S, k: int, v0=None):
    """The k largest eigenvalues of a symmetric S, ascending.

    LAPACK strictly below ``DENSE_LIMIT`` states, ``eigsh`` at or above it,
    started from ``v0`` or else from a fixed vector, so repeated calls give
    the same digits.
    """
    if S.shape[0] < DENSE_LIMIT:
        return np.linalg.eigvalsh(S if isinstance(S, np.ndarray) else S.toarray())[-k:]
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
        energies: anyon count of each representative.
        characters: the even star subsets as star bitmasks, one per block.
        flip: per edge, the mask that takes each representative to the
            representative of its edge-flipped coset.
        combo: per edge, the star combination that this step drops.
    """

    def __init__(self, model: LatticeModel, beta: float):
        if model.kind != "Kitaev2D":
            raise ValueError(f"star blocks need a Kitaev2D model, got {model.kind!r}")
        self.model, self.beta = model, float(beta)
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

        parity = _plaquette_parity(model, self.reps)
        self.energies = parity.sum(axis=1).astype(np.float64)
        n = self.reps.size
        src = np.arange(n, dtype=np.int64)
        rows, vals, exit_rate = [], [], np.zeros(n)
        for e in range(n_e):
            dst = self._index(self.reps ^ self.flip[e])
            rate = _kitaev_rates(model, self.beta, parity, e)
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
            RuntimeError: the rates break detailed balance, so the block
                is not symmetric.
        """
        import scipy.sparse as sp

        # bitwise_count returns uint8: cast before 1 - 2 * count or -1 wraps to 255
        odd = np.bitwise_count(self.combo & int(chi)).astype(np.int64) & 1
        n = self.reps.size
        sign = np.concatenate([np.repeat(1 - 2 * odd, n), np.ones(n, dtype=np.int64)])
        B = sp.coo_matrix((self._vals * sign, (self._rows, self._cols)), shape=(n, n)).tocsr()
        return _symmetric_part(B, self._scale)

    def orbits(self) -> list:
        """Characters grouped by lattice translation, the trivial orbit first.

        Translations commute with the generator, so all blocks of one orbit
        have the same spectrum.  Each orbit lists its smallest bitmask first.
        """
        L = self.model.L
        s = np.arange(L * L)
        x, y = s % L, s // L
        bits = (self.characters[:, None] >> s) & 1
        images = [bits @ (1 << (((y + dy) % L) * L + (x + dx) % L))
                  for dy in range(L) for dx in range(L)]
        canon = np.min(images, axis=0)
        return [self.characters[canon == c] for c in np.unique(canon)]

    def gap(self) -> float:
        """Spectral gap of the full generator: the trivial block's second
        eigenvalue against the top eigenvalue of one block per non-trivial
        translation orbit."""
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


def _frozen_work(step, p1: float) -> float:
    """Work of a jump or decoupled segment on populations frozen at (1 - p1, p1)."""
    return (1.0 - p1) * (step.eps0[1] - step.eps0[0]) + p1 * (step.eps1[1] - step.eps1[0])


@dataclass(frozen=True)
class ProtocolSchedule:
    """Contiguous segments plus explicit jumps for a driven two-level system.

    ``steps`` is the timeline that every consumer walks, merged once here:
    the jumps at ``t_start``, then each segment followed by the jumps at its
    end.
    """

    segments: tuple
    jumps: tuple = ()
    gamma: float = 1.0
    beta: float = 1.0
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
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


def two_level_rates(delta: float, gamma: float, beta: float,
                    convention: str = "heat-bath"):
    """(up rate 0->1, down rate 1->0) for level splitting ``delta``.

    Heat-bath rates sum to gamma; Metropolis moves downhill at gamma.
    Both satisfy detailed balance with the instantaneous Gibbs ratio.
    """
    x = beta * delta
    if convention == "heat-bath":
        return gamma * heat_bath(x), gamma * heat_bath(-x)
    if convention == "metropolis":
        return gamma * min(1.0, math.exp(-x)), gamma * min(1.0, math.exp(x))
    raise ValueError(f"unknown rate convention: {convention!r}")


@dataclass(frozen=True)
class SegmentRecord:
    """Ledger line of one schedule interval (or jump): energy bookkeeping."""

    label: str
    t0: float
    t1: float
    work: float
    heat: float
    delta_u: float


@dataclass(frozen=True)
class MasterSolution:
    """Time-resolved populations and the work/heat integrals of a protocol."""

    ts: np.ndarray
    ps: np.ndarray       # (K, 2) populations
    eps: np.ndarray      # (K, 2) level energies
    work: float
    heat: float
    delta_u: float
    segments: tuple
    p_final: np.ndarray


MASTER_RTOL = 1e-8  # relative tolerance of the adaptive master-equation solve


def integrate_master(schedule: ProtocolSchedule, p0,
                     rates: str = "heat-bath") -> MasterSolution:
    """Solve dp/dt = G(t) p along the schedule's steps, with work/heat integrands.

    Populations are propagated as p1 (p0 = 1 - p1), so normalization is exact
    by construction.  Work accumulates as sum_i p_i d(eps_i)/dt inside
    coupled segments plus sum_i p_i delta(eps_i) over jumps and decoupled
    segments, where populations are frozen; heat accumulates as
    sum_i eps_i dp_i/dt.  Adaptive integration at relative tolerance
    ``MASTER_RTOL``.
    """
    from scipy.integrate import solve_ivp

    p = np.asarray(p0, dtype=np.float64)
    if p.shape != (2,) or abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-12):
        raise ValueError("p0 must be a 2-state probability vector")
    p1 = float(p[1])
    gamma, beta = schedule.gamma, schedule.beta

    eps = schedule.start_energies
    ts, ps, eps_track, records = [schedule.t_start], [(1.0 - p1, p1)], [eps], []
    work_total = heat_total = 0.0
    for step in schedule.steps:
        if not step.coupled:
            # populations frozen, so dU = W
            w = _frozen_work(step, p1)
            jump = isinstance(step, Jump)
            records.append(SegmentRecord("jump" if jump else "decoupled",
                                         step.t0, step.t1, w, 0.0, w))
            work_total += w
            grid = [step.t] if jump else np.linspace(step.t0, step.t1, 9)[1:]
            q1s = [p1] * len(grid)
        else:
            seg = step
            de0, de1 = seg.slopes

            def rhs(t, y):
                q1, _, _ = y
                e0, e1 = seg.energies(t)
                up, down = two_level_rates(e1 - e0, gamma, beta, rates)
                dq1 = up * (1.0 - q1) - down * q1
                return dq1, (1.0 - q1) * de0 + q1 * de1, e0 * (-dq1) + e1 * dq1

            sol = solve_ivp(rhs, (seg.t0, seg.t1), (p1, 0.0, 0.0),
                            method="DOP853", rtol=MASTER_RTOL, atol=1e-12,
                            dense_output=True)
            if not sol.success:
                raise RuntimeError(f"master-equation integration failed: {sol.message}")
            grid = np.linspace(seg.t0, seg.t1, 33)[1:]
            q1s = sol.sol(grid)[0]
            u_before = (1.0 - p1) * eps[0] + p1 * eps[1]
            p1 = float(sol.y[0, -1])
            w, q = float(sol.y[1, -1]), float(sol.y[2, -1])
            records.append(SegmentRecord("coupled", seg.t0, seg.t1, w, q,
                                         (1.0 - p1) * seg.eps0[1] + p1 * seg.eps1[1] - u_before))
            work_total += w
            heat_total += q
        for tg, q1 in zip(grid, q1s):
            ts.append(float(tg))
            ps.append((1.0 - q1, q1))
            eps_track.append(step.energies(tg))
        eps = (step.eps0[1], step.eps1[1])

    u_first = ps[0][0] * eps_track[0][0] + ps[0][1] * eps_track[0][1]
    u_last = (1.0 - p1) * eps[0] + p1 * eps[1]
    return MasterSolution(np.asarray(ts), np.asarray(ps), np.asarray(eps_track),
                          work_total, heat_total, u_last - u_first,
                          tuple(records), np.array([1.0 - p1, p1]))
