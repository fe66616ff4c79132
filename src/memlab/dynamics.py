"""Continuous-time Monte Carlo for the lattice models.

Exact rejection-free sampling by the Bortz-Kalos-Lebowitz n-fold way
(J. Comput. Phys. 17, 10 (1975)): waiting times are exponential in the total
escape rate and events are drawn proportionally to their rates.  One sampler
serves every model kind.  It keeps the sites in rate-class buckets -- an
Ising spin's class is its local field, a toric-code edge's class is the
occupation of its two plaquettes -- so each event costs O(1) bookkeeping
regardless of system size.  That is what makes the low-temperature runs
feasible: a wait of order e^{2 beta} is one exponential draw, not e^{2 beta}
rejected sweeps.  A kind supplies only its data: the ordered class keys, the
key of a site computed from the state, the sites whose key a flip can change,
the flip itself with its tracked observable (magnetization or anyon count),
and the per-beta rate table (recomputed from M for the mean-field kind only).

One event loop drives every trajectory.  Recorded runs, first-passage runs
and toric-code memory runs differ only in the hooks they pass to it: one per
probe, one per event before the flip, and a stop test after the flip.

Ensembles derive every trajectory's generator from (master seed, trajectory
index) alone, so results never depend on how many workers ran them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._shared import heat_bath, run_chunks
from .lattice import (LatticeModel, SpinConfiguration, Syndrome, _as_error_set,
                      _as_spins, build_model)
from . import decoder as _decoder_mod


@dataclass(frozen=True)
class SimulationParams:
    """Ensemble parameters: inverse temperature, horizon, size, probe interval."""

    beta: float
    t_max: float
    n_traj: int = 1
    probe_cadence: float | None = None

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if self.probe_cadence is not None and not (
                math.isfinite(self.probe_cadence) and self.probe_cadence > 0):
            raise ValueError("probe_cadence must be None or a finite value > 0, "
                             f"got {self.probe_cadence!r}")


@dataclass(frozen=True)
class EventClass:
    """A single executable flip: its tag, location and rate."""

    tag: str
    site: int
    rate: float


@dataclass
class TrajectoryRecord:
    """One simulated trajectory.

    Attributes:
        seed: 64-bit token the trajectory's generator was derived from.
        events: list of (time, EventClass), strictly increasing times.
        probes: list of (time, observable) sampled on the probe cadence
            (magnetization for Ising kinds, anyon count for Kitaev2D).
        final_state: SpinConfiguration (Ising) or frozenset of edges (Kitaev).
    """

    seed: int
    events: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    final_state: object = None


@dataclass(frozen=True)
class LifetimeResult:
    """First-passage ensemble summary; censored runs enter at t_max (lower bound)."""

    mean: float
    stderr: float
    n_traj: int
    censored: int
    times: np.ndarray = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# the n-fold-way sampler


class _Sampler:
    """Rate-class buckets and the draw, shared by every model kind.

    A kind's subclass sets, before calling ``__init__``:

    - ``keys``: class keys in draw order;
    - ``tags``: event tag of each key;
    - ``affected``: per site, the sites whose key its flip can change, in the
      order their buckets are updated;
    - ``rates`` (key -> rate), unless it overrides :meth:`rate_table`;
    - ``obs``: the tracked observable;

    and implements ``key(i)`` (class of site i in the current state) and
    ``flip_state(i)`` (flip site i and update ``obs``).
    """

    def __init__(self):
        self.members = {k: [] for k in self.keys}
        n = len(self.affected)
        self.pos = [0] * n
        self.key_of = [0] * n
        for i in range(n):
            k = self.key(i)
            self.key_of[i] = k
            self.pos[i] = len(self.members[k])
            self.members[k].append(i)

    def rate_table(self) -> dict:
        return self.rates

    def draw(self, rng):
        """(waiting time, site, rate) of the next event, or None when frozen."""
        rates = self.rate_table()
        members = self.members
        total = sum(len(members[k]) * rates[k] for k in self.keys)
        if total <= 0.0:
            return None
        dt = rng.exponential() / total
        u = rng.random() * total
        live = [k for k in self.keys if members[k] and rates[k] > 0.0]
        for k in live[:-1]:
            w = len(members[k]) * rates[k]
            if u < w:
                break
            u -= w
        else:
            k = live[-1]
        lst = members[k]
        return dt, lst[int(rng.integers(len(lst)))], rates[k]

    def flip(self, i: int):
        """Flip site i and swap-remove every affected site into its new bucket."""
        self.flip_state(i)
        members, pos, key_of = self.members, self.pos, self.key_of
        for j in self.affected[i]:
            new = self.key(j)
            old = key_of[j]
            if new == old:
                continue
            lst = members[old]
            p = pos[j]
            last = lst[-1]
            lst[p] = last
            pos[last] = p
            lst.pop()
            key_of[j] = new
            pos[j] = len(members[new])
            members[new].append(j)


class _IsingSampler(_Sampler):
    """Spins as a list of +-1; the observable is the magnetization M."""

    def __init__(self, model: LatticeModel, initial):
        spins = (SpinConfiguration.all_up(model.N) if initial is None
                 else _as_spins(model, initial))
        self.s = spins.spins.tolist()
        self.obs = sum(self.s)
        self.tags = dict.fromkeys(self.keys, "ising-flip")
        super().__init__()

    def flip_state(self, i: int):
        s = self.s
        s[i] = -s[i]
        self.obs += 2 * s[i]

    def state_view(self) -> np.ndarray:
        return np.array(self.s, dtype=np.int8)

    def final_state(self) -> SpinConfiguration:
        return SpinConfiguration(self.state_view())


class _LocalFieldSampler(_IsingSampler):
    """Ring and square-lattice Ising: class = s_i * (sum of neighbour spins)."""

    def __init__(self, model: LatticeModel, beta: float, initial, neighbours):
        self.nbrs = neighbours
        self.keys = tuple(range(-len(neighbours[0]), len(neighbours[0]) + 1, 2))
        self.affected = [(i, *nb) for i, nb in enumerate(neighbours)]
        self.rates = {k: heat_bath(beta * (2.0 * model.J * k)) for k in self.keys}
        super().__init__(model, initial)

    def key(self, i: int) -> int:
        s = self.s
        h = 0
        for j in self.nbrs[i]:
            h += s[j]
        return s[i] * h


class _MeanFieldSampler(_IsingSampler):
    """Curie-Weiss Ising: class = s_i; the rates follow M after every flip."""

    keys = (-1, 1)

    def __init__(self, model: LatticeModel, beta: float, initial):
        self.beta = beta
        self.coupling = 2.0 * model.J / model.N
        self.affected = [(i,) for i in range(model.N)]
        super().__init__(model, initial)

    def key(self, i: int) -> int:
        return self.s[i]

    def rate_table(self) -> dict:
        M = self.obs
        return {k: heat_bath(self.beta * (self.coupling * (k * M - 1.0)))
                for k in self.keys}


class _KitaevSampler(_Sampler):
    """One-sector toric code; the observable is the anyon count.

    Edge classes by adjacent-plaquette occupation: 0 occupied -> pair
    creation at rate e^{-2 beta}, 1 occupied -> anyon hop, 2 occupied ->
    pair annihilation at rate 1.
    """

    keys = (0, 1, 2)
    tags = {0: "create-pair", 1: "move-anyon", 2: "annihilate-pair"}

    def __init__(self, model: LatticeModel, beta: float, initial):
        self.errors = set() if initial is None else set(_as_error_set(model, initial))
        self.ep = model.edge_plaquettes.tolist()
        self.anyons = set()
        for e in self.errors:
            self.anyons ^= set(self.ep[e])
        self.obs = len(self.anyons)
        pe = model.plaquette_edges.tolist()
        self.affected = [tuple(dict.fromkeys(pe[p] + pe[q])) for p, q in self.ep]
        self.rates = {0: math.exp(-2.0 * beta), 1: model.move_rate, 2: 1.0}
        super().__init__()

    def key(self, e: int) -> int:
        p, q = self.ep[e]
        return (p in self.anyons) + (q in self.anyons)

    def flip_state(self, e: int):
        self.errors ^= {e}
        self.anyons ^= set(self.ep[e])
        self.obs = len(self.anyons)

    def state_view(self) -> frozenset:
        return frozenset(sorted(self.errors))

    final_state = state_view


def _ring(n: int) -> list:
    return [((i - 1) % n, (i + 1) % n) for i in range(n)]


def _sampler(model: LatticeModel, beta: float, initial=None) -> _Sampler:
    """Sampler of the model's kind, started from ``initial`` (default: all up /
    no errors).  Raises ValueError for a state that does not fit the model."""
    if model.kind == "Kitaev2D":
        return _KitaevSampler(model, beta, initial)
    if model.kind == "IsingMeanField":
        return _MeanFieldSampler(model, beta, initial)
    neighbours = _ring(model.N) if model.kind == "Ising1D" else model.neighbours.tolist()
    return _LocalFieldSampler(model, beta, initial, neighbours)


def _evolve(sampler: _Sampler, rng, t_max: float, cadence=None, on_probe=None,
            on_event=None, stop=None) -> float:
    """Run one trajectory from t = 0; returns the time it ended.

    ``on_probe(t)`` fires at each cadence point up to the next event and
    ``t_max``; a true return ends the run at that probe time.  ``on_event(t,
    site, rate)`` sees each event before its flip, and a true ``stop()``
    after the flip ends the run at the event time.  Otherwise the run ends
    at ``t_max``.
    """
    t = 0.0
    next_probe = cadence if cadence else math.inf
    while True:
        drawn = sampler.draw(rng)
        if drawn is None:
            if math.isinf(t_max):
                raise RuntimeError("absorbing state: total rate is zero and t_max is infinite")
            t_next = math.inf
        else:
            dt, site, rate = drawn
            t_next = t + dt
        while next_probe <= min(t_next, t_max):
            if on_probe(next_probe):
                return next_probe
            next_probe += cadence
        if t_next > t_max:
            return t_max
        t = t_next
        if on_event is not None:
            on_event(t, site, rate)
        sampler.flip(site)
        if stop is not None and stop():
            return t


# ---------------------------------------------------------------------------
# public operations


def classify_flip(model: LatticeModel, state, site: int) -> EventClass:
    """Rate and event class of flipping one site in the given state.

    Kitaev2D inspects the two plaquettes adjacent to the edge (both clear ->
    pair creation at e^{-2 beta}, both occupied -> annihilation at 1, mixed ->
    hop); Ising kinds use the heat-bath rate 1/(1 + e^{beta dE}).  The
    inverse temperature is taken from the model (see ``with_beta``).
    """
    beta = model.require_beta()
    if not 0 <= site < model.N:
        noun = "edge" if model.kind == "Kitaev2D" else "site"
        raise ValueError(f"invalid {noun} index: {site}")
    sampler = _sampler(model, beta, state)
    k = sampler.key_of[site]
    return EventClass(sampler.tags[k], site, sampler.rate_table()[k])


def simulate_trajectory(model: LatticeModel, params: SimulationParams,
                        seed=0, initial=None) -> TrajectoryRecord:
    """One exact Gillespie trajectory with a full event record.

    Args:
        model: lattice model (its beta slot is overridden by ``params.beta``).
        params: simulation parameters.
        seed: integer token or SeedSequence; identical inputs give
            bit-identical records.
        initial: optional starting state (default: all-up / no errors): a
            SpinConfiguration or a +-1 sequence of the model's size for Ising
            kinds, an edge iterable or SpinConfiguration for Kitaev2D.

    Returns:
        A :class:`TrajectoryRecord`; probes hold magnetization (Ising) or
        anyon count (Kitaev) on the cadence grid.

    Raises:
        ValueError: if ``initial`` does not fit the model.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
        token = int(ss.generate_state(1, np.uint64)[0])
    else:
        ss = np.random.SeedSequence(seed)
        token = int(seed) if np.isscalar(seed) else int(ss.generate_state(1, np.uint64)[0])
    rng = np.random.default_rng(ss)
    sampler = _sampler(model, params.beta, initial)
    record = TrajectoryRecord(seed=token)

    def probe(t):
        record.probes.append((t, float(sampler.obs)))

    def event(t, site, rate):
        tag = sampler.tags[sampler.key_of[site]]
        record.events.append((t, EventClass(tag, site, rate)))

    _evolve(sampler, rng, params.t_max, params.probe_cadence, probe, event)
    record.final_state = sampler.final_state()
    return record


def magnetization_nonpositive(state) -> bool:
    """Default Ising lifetime predicate: total magnetization has left +."""
    return int(np.sum(state)) <= 0


def _first_passage_once(model, params, predicate, ss) -> float:
    sampler = _sampler(model, params.beta)
    if predicate is None:
        # magnetization_nonpositive, read from the tracked magnetization
        def stop():
            return sampler.obs <= 0
    else:
        def stop():
            return predicate(sampler.state_view())
    if stop():
        raise ValueError("predicate already true in the initial state")
    return _evolve(sampler, np.random.default_rng(ss), params.t_max, stop=stop)


def _summarize(times: np.ndarray, t_max: float) -> LifetimeResult:
    censored = int(np.sum(times >= t_max))
    mean = float(np.mean(times))
    stderr = float(np.std(times, ddof=1) / math.sqrt(len(times))) if len(times) > 1 else 0.0
    return LifetimeResult(mean, stderr, len(times), censored, times)


def first_passage(model: LatticeModel, params: SimulationParams, predicate=None,
                  seed=0, workers: int = 1) -> LifetimeResult:
    """Mean first time an ensemble of trajectories satisfies a predicate.

    Trajectories start from the ordered state (all spins up / no errors).
    The default predicate is the magnetization sign change
    (:func:`magnetization_nonpositive`), the classical memory-failure
    criterion.  Runs reaching t_max enter the mean censored at t_max, so the
    reported lifetime is a lower bound; the censored count is part of the
    result.

    Args:
        model: lattice model.
        params: ensemble parameters (beta, t_max, n_traj).
        predicate: state -> bool, false initially (picklable if workers > 1).
        seed: master seed; trajectory i uses (seed, i) regardless of workers.
        workers: process count (results are identical for any value).
    """
    times = np.asarray(run_chunks(
        _first_passage_once, (model, params, predicate), seed, params.n_traj, workers))
    return _summarize(times, params.t_max)


def _resolve_decoder(decoder):
    if decoder in ("matching", None) or decoder == "bare":
        return decoder
    if callable(decoder):
        return decoder
    raise ValueError(f"unknown decoder: {decoder!r}")


def _kitaev_lifetime_once(model, params, decoder, op_support, ss) -> float:
    """First probe time at which the (possibly dressed) logical reads -1."""
    sampler = _KitaevSampler(model, params.beta, None)
    L = model.L
    cadence = params.probe_cadence
    if cadence is None:
        cadence = 0.5 * math.exp(2.0 * params.beta) / (2 * L * L)
    bare = 1
    sign_cache = {}

    def event(t, edge, rate):
        nonlocal bare
        if edge in op_support:
            bare = -bare

    def probe(t):
        if decoder == "bare":
            return bare == -1
        key = tuple(sorted(sampler.anyons))
        sign = sign_cache.get(key)
        if sign is None:
            syn = Syndrome(frozenset(key), "plaquette")
            if decoder == "matching" or decoder is None:
                corr = _decoder_mod.decode_matching(syn, L)
            else:
                try:
                    corr = decoder(syn, L)
                except Exception as exc:
                    raise RuntimeError(
                        f"decoder failed at t={t:g} "
                        f"on syndrome {sorted(syn.anyons)}") from exc
            sign = 1 if len(corr.edges & op_support) % 2 == 0 else -1
            sign_cache[key] = sign
        return bare * sign == -1

    return _evolve(sampler, np.random.default_rng(ss), params.t_max, cadence,
                   probe, event)


def kitaev_memory_lifetime(L: int, params: SimulationParams, decoder="matching",
                           seed=0, workers: int = 1, mu: int = 1,
                           move_rate: float = 1.0) -> LifetimeResult:
    """Ensemble lifetime of an encoded toric-code bit under thermal noise.

    Each trajectory starts in the clean code state; on the probe cadence the
    syndrome is extracted, decoded (unless ``decoder="bare"``), and the run
    fails at the first probe where the corrected (or bare) logical reads -1.
    The probe cadence defaults to half the mean first-event time,
    e^{2 beta} / (4 L^2).

    Args:
        L: linear lattice size (>= 2).
        params: ensemble parameters.
        decoder: ``"matching"``, ``"bare"``, or a callable (Syndrome, L) ->
            Correction.
        seed: master seed (per-trajectory derivation as in first_passage).
        workers: process count.
        mu: tracked logical direction (1 or 2).
        move_rate: anyon hop rate override.
    """
    from .lattice import logical_operator

    model = build_model("Kitaev2D", L=L, move_rate=move_rate)
    op = logical_operator(model, mu, "Z-type")
    dec = _resolve_decoder(decoder)
    times = np.asarray(run_chunks(
        _kitaev_lifetime_once, (model, params, dec, op.support), seed,
        params.n_traj, workers))
    return _summarize(times, params.t_max)
