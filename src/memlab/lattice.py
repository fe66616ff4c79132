"""Spin models: lattice geometry, energies, stabilizer syndromes, logical loops.

Four model kinds are supported:

* ``Ising1D`` -- ferromagnetic ring, H = -J sum_j s_j s_{j+1} (periodic).
* ``IsingMeanField`` -- Curie-Weiss form H = -(J/2N) M^2 with M = sum_j s_j
  (the self-interaction term is a constant shift and never enters differences).
* ``Ising2D`` -- nearest-neighbour ferromagnet on an L x L torus.
* ``Kitaev2D`` -- toric code on an L x L torus: 2L^2 edge qubits, L^2 star
  (vertex) stabilizers and L^2 plaquette (face) stabilizers.

For ``Kitaev2D`` the state of interest is an *error set*: the set of edges
flipped relative to the all-up reference frame.  By convention the flips are
X-type, so they excite plaquette stabilizers; the star sector behaves
identically under lattice duality and is available through the ``sector``
arguments without a separate code path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._shared import check_count, check_real

KINDS = ("Ising1D", "IsingMeanField", "Ising2D", "Kitaev2D")


@dataclass(frozen=True)
class SpinConfiguration:
    """Ordered +-1 spins of a lattice model; equal spins compare and hash equal.

    Args:
        spins: sequence of +-1 values, one per site (stored as a read-only
            int8 copy).
    """

    spins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.spins)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("spins must be a non-empty 1-d sequence")
        # check before the cast, which would truncate 1.5 or wrap 257 to +-1
        if arr.dtype.kind not in "biuf" or not np.all(np.abs(arr) == 1):
            raise ValueError("spins must take values +1 or -1")
        spins = arr.astype(np.int8)  # a copy: the caller's array stays writable
        spins.flags.writeable = False  # the hash reads the spins, so they cannot change
        object.__setattr__(self, "spins", spins)

    def __eq__(self, other):
        if not isinstance(other, SpinConfiguration):
            return NotImplemented
        return np.array_equal(self.spins, other.spins)

    def __hash__(self):
        return hash(self.spins.tobytes())

    @property
    def n(self) -> int:
        return int(self.spins.size)

    @classmethod
    def all_up(cls, n: int) -> "SpinConfiguration":
        return cls(np.ones(n, dtype=np.int8))


@dataclass(frozen=True)
class Syndrome:
    """Set of violated stabilizers of one sector.

    Args:
        anyons: indices of stabilizers with eigenvalue -1.
        sector: ``"star"`` or ``"plaquette"``.
    """

    anyons: frozenset
    sector: str

    def __post_init__(self):
        object.__setattr__(self, "anyons",
                           frozenset(check_count("anyons", a, least=0) for a in self.anyons))
        if self.sector not in ("star", "plaquette"):
            raise ValueError(f"unknown sector: {self.sector!r}")
        if len(self.anyons) % 2 != 0:
            raise ValueError("anyon number must be even")

    def __len__(self):
        return len(self.anyons)


@dataclass(frozen=True)
class LogicalOperator:
    """Non-contractible loop observable of the toric code.

    Args:
        mu: winding direction index, 1 (x) or 2 (y).
        sector: ``"Z-type"`` (sigma-z string on a primal loop) or ``"X-type"``
            (sigma-x string on a dual loop).
        support: edges carrying the Pauli factors.
    """

    mu: int
    sector: str
    support: frozenset

    def __post_init__(self):
        object.__setattr__(self, "support",
                           frozenset(check_count("support", e, least=0) for e in self.support))
        if check_count("mu", self.mu, least=None) not in (1, 2):
            raise ValueError("mu must be 1 or 2")
        if self.sector not in ("Z-type", "X-type"):
            raise ValueError(f"unknown sector: {self.sector!r}")


@dataclass(frozen=True)
class LatticeModel:
    """Geometry plus Hamiltonian descriptor; build via :func:`build_model`.

    Fields `edge_stars` etc. are precomputed incidence tables (Kitaev2D only);
    ``neighbours`` lists each site's nearest neighbours (Ising1D, Ising2D).
    The tables are read-only; models of one Kitaev2D size share theirs.
    They follow from the other fields, so models compare and hash by those.
    A model holds no temperature: every rate computation takes ``beta``.
    """

    kind: str
    N: int
    J: float = 1.0
    L: int | None = None
    move_rate: float = 1.0
    # Kitaev2D incidence tables (None for Ising kinds)
    edge_plaquettes: np.ndarray | None = field(default=None, repr=False, compare=False)
    edge_stars: np.ndarray | None = field(default=None, repr=False, compare=False)
    plaquette_edges: np.ndarray | None = field(default=None, repr=False, compare=False)
    star_edges: np.ndarray | None = field(default=None, repr=False, compare=False)
    # Ising1D / Ising2D neighbour table
    neighbours: np.ndarray | None = field(default=None, repr=False, compare=False)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _neighbours(idx: np.ndarray) -> np.ndarray:
    """Nearest-neighbour table of a periodic index array, one row per site.

    Per axis the previous site comes first, then the next: ``(i-1, i+1)`` on
    a ring, ``(y-1, y+1, x-1, x+1)`` on a torus.  At N = 2 the ring's two
    entries coincide, which is its doubled bond.
    """
    return _read_only(np.stack(
        [np.roll(idx, shift, axis) for axis in range(idx.ndim) for shift in (1, -1)],
        axis=-1).reshape(idx.size, 2 * idx.ndim))


@functools.lru_cache(maxsize=None)
def _kitaev_tables(L: int):
    """Incidence tables for the L x L torus, built once per L.

    Edges: horizontal h(x, y) = y*L + x joins vertices (x,y)-(x+1,y);
    vertical v(x, y) = L^2 + y*L + x joins (x,y)-(x,y+1).
    Plaquette p(x, y) = y*L + x is the face with corners (x,y)..(x+1,y+1);
    star s(x, y) = y*L + x is the vertex (x, y).
    """
    n_e = 2 * L * L
    edge_plaq = np.empty((n_e, 2), dtype=np.int64)
    edge_star = np.empty((n_e, 2), dtype=np.int64)
    for y in range(L):
        for x in range(L):
            h = y * L + x
            v = L * L + y * L + x
            edge_plaq[h] = (y * L + x, ((y - 1) % L) * L + x)
            edge_plaq[v] = (y * L + x, y * L + (x - 1) % L)
            edge_star[h] = (y * L + x, y * L + (x + 1) % L)
            edge_star[v] = (y * L + x, ((y + 1) % L) * L + x)
    plaq_edges = [[] for _ in range(L * L)]
    star_edges = [[] for _ in range(L * L)]
    for e in range(n_e):
        for p in edge_plaq[e]:
            plaq_edges[p].append(e)
        for s in edge_star[e]:
            star_edges[s].append(e)
    return tuple(_read_only(t) for t in (edge_plaq, edge_star,
                                         np.array(plaq_edges, dtype=np.int64),
                                         np.array(star_edges, dtype=np.int64)))


def build_model(kind: str, N: int | None = None, L: int | None = None,
                J: float = 1.0, move_rate: float = 1.0) -> LatticeModel:
    """Construct a lattice model with precomputed incidence tables.

    Args:
        kind: one of ``Ising1D``, ``IsingMeanField``, ``Ising2D``, ``Kitaev2D``.
        N: site count (Ising1D, at least 2; IsingMeanField, at least 1).
        L: linear size (Ising2D, Kitaev2D), at least 2.
        J: coupling energy, finite.
        move_rate: anyon hop rate override, finite and >= 0 (Kitaev2D only;
            default 1).

    Returns:
        An immutable :class:`LatticeModel`.
    """
    if kind not in KINDS:
        raise ValueError(f"unsupported model kind: {kind!r}")
    J = check_real("J", J)
    move_rate = check_real("move_rate", move_rate, least=0)
    if kind == "Ising1D":  # a ring of at least two spins
        N = check_count(f"{kind} size N", N, 2)
        return LatticeModel(kind, N, J, neighbours=_neighbours(np.arange(N)))
    if kind == "IsingMeanField":
        return LatticeModel(kind, check_count(f"{kind} size N", N), J)
    L = check_count(f"{kind} size L", L, 2)
    if kind == "Ising2D":
        return LatticeModel(kind, L * L, J, L,
                            neighbours=_neighbours(np.arange(L * L).reshape(L, L)))
    ep, es, pe, se = _kitaev_tables(L)
    return LatticeModel(kind, 2 * L * L, J, L, move_rate=move_rate,
                        edge_plaquettes=ep, edge_stars=es, plaquette_edges=pe, star_edges=se)


def _as_error_set(model: LatticeModel, config, name: str) -> frozenset:
    """Normalize a Kitaev state (SpinConfiguration or edge iterable), the
    argument ``name``, to an error set."""
    if isinstance(config, SpinConfiguration):
        if config.n != model.N:
            raise ValueError(f"configuration has {config.n} spins, model has {model.N}")
        return frozenset(np.flatnonzero(config.spins < 0).tolist())
    edges = frozenset(check_count(name, e, least=None) for e in config)
    for e in edges:
        if not 0 <= e < model.N:
            raise ValueError(f"invalid edge index: {e}")
    return edges


def _as_spins(model: LatticeModel, config) -> SpinConfiguration:
    """Normalize an Ising state (SpinConfiguration or +-1 sequence) of the model's size."""
    if not isinstance(config, SpinConfiguration):
        config = SpinConfiguration(np.asarray(config))
    if config.n != model.N:
        raise ValueError(f"configuration has {config.n} spins, model has {model.N}")
    return config


def syndrome(model: LatticeModel, error, sector: str = "plaquette") -> Syndrome:
    """Stabilizers of ``sector`` sharing an odd number of edges with ``error``.

    Args:
        model: a Kitaev2D model.
        error: set of flipped edges (or a SpinConfiguration relative to all-up).
        sector: ``"plaquette"`` or ``"star"``.
    """
    if model.kind != "Kitaev2D":
        raise ValueError("syndrome is defined for Kitaev2D models")
    if sector not in ("plaquette", "star"):
        raise ValueError(f"unknown sector: {sector!r}")
    edges = _as_error_set(model, error, "error")
    table = model.edge_plaquettes if sector == "plaquette" else model.edge_stars
    counts = np.zeros(model.L * model.L, dtype=np.int64)
    for e in edges:
        counts[table[e, 0]] += 1
        counts[table[e, 1]] += 1
    return Syndrome(frozenset(np.flatnonzero(counts % 2 == 1).tolist()), sector)


def energy(model: LatticeModel, config) -> float:
    """Energy of a configuration.

    Ising kinds take a :class:`SpinConfiguration`.  ``Kitaev2D`` takes an
    error set (edges flipped from the reference frame) or a SpinConfiguration,
    and returns the total anyon count over both sectors -- one energy unit per
    anyon, so that creating one excitation pair costs 2 and one flipped edge
    reads 4.  ``exact`` counts plaquette anyons only: 2 for that edge.
    """
    if model.kind == "Kitaev2D":
        edges = _as_error_set(model, config, "config")
        return float(len(syndrome(model, edges, "star").anyons)
                     + len(syndrome(model, edges, "plaquette").anyons))
    return float(ising_energies(model, _as_spins(model, config).spins))


def ising_energies(model: LatticeModel, spins) -> np.ndarray:
    """Energies of a stack of +-1 spin rows, shape (..., N), of an Ising model."""
    s = np.asarray(spins)  # integer sums are exact; the float product comes last
    if model.kind == "IsingMeanField":
        return -(model.J / (2 * model.N)) * s.sum(axis=-1) ** 2
    # the neighbour table counts every bond twice
    return -0.5 * model.J * np.sum(s * s[..., model.neighbours].sum(axis=-1), axis=-1)


def block_flip_delta(model: LatticeModel, k: int) -> float:
    """Energy cost of flipping a contiguous block of ``k`` spins in the all-up state.

    Closed forms (verified against direct energy evaluation in the tests):
    ring = 4J for any 0 < k < N; mean-field = 2Jk(1 - k/N).
    """
    if model.kind not in ("Ising1D", "IsingMeanField"):
        raise ValueError("block flips are defined for Ising1D and IsingMeanField")
    if not 0 < check_count("k", k, least=None) < model.N:
        raise ValueError(f"block length k={k} out of range (0 < k < {model.N})")
    if model.kind == "Ising1D":
        return 4.0 * model.J
    return 2.0 * model.J * k * (1.0 - k / model.N)


def logical_operator(model: LatticeModel, mu: int, sector: str = "Z-type") -> LogicalOperator:
    """A minimal-support logical loop of the given winding direction and type.

    Z-type loops are primal cycles (row of horizontal edges for mu=1, column
    of vertical edges for mu=2); X-type loops are the dual cycles conjugate to
    them (column of horizontal edges for mu=1, row of vertical edges for mu=2),
    so that X^mu and Z^mu share exactly one edge.
    """
    if model.kind != "Kitaev2D":
        raise ValueError("logical operators are defined for Kitaev2D models")
    L = model.L
    if sector == "Z-type":
        if mu == 1:      # winds in x: horizontal edges of row y=0
            support = {0 * L + x for x in range(L)}
        else:            # winds in y: vertical edges of column x=0
            support = {L * L + y * L + 0 for y in range(L)}
    elif sector == "X-type":
        if mu == 1:      # dual loop crossing Z^1: horizontal edges of column x=0
            support = {y * L + 0 for y in range(L)}
        else:            # dual loop crossing Z^2: vertical edges of row y=0
            support = {L * L + 0 * L + x for x in range(L)}
    else:
        raise ValueError(f"unknown sector: {sector!r}")
    return LogicalOperator(mu, sector, frozenset(support))


def logical_bare(model: LatticeModel, error, op: LogicalOperator) -> int:
    """Bare value of a logical under an X-type error set: parity of crossings.

    Returns (-1)**|error intersect op.support| for Z-type operators (the edges
    where a sigma-x flip anticommutes with the sigma-z string).  X-type
    operators commute with X errors and always read +1.
    """
    edges = _as_error_set(model, error, "error")
    if any(e >= model.N for e in op.support):
        raise ValueError("operator does not fit this model")
    return crossing_sign(edges, op)


def crossing_sign(edges, op: LogicalOperator) -> int:
    """(-1)**(number of edges anticommuting with the operator's Pauli string)."""
    if op.sector == "X-type":
        return 1
    return -1 if len(frozenset(edges) & op.support) % 2 else 1
