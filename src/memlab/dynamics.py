"""Continuous-time Monte Carlo for the lattice models.

Exact rejection-free sampling by the Bortz-Kalos-Lebowitz n-fold way
(J. Comput. Phys. 17, 10 (1975)): waiting times are exponential in the total
escape rate and events are drawn proportionally to their rates.  One sampler
serves every model kind.  It keeps the sites in rate-class buckets -- an
Ising spin's class is its local field, a toric-code edge's class is the
occupation of its two plaquettes -- each bucket sorted by site, so an event
costs a pass over the few classes plus a bisection per affected site.  That
is what makes the low-temperature runs feasible: a wait of order e^{2 beta}
is one exponential draw, not e^{2 beta} rejected sweeps.  A kind supplies
only its data: the key of a site computed from the state, the sites whose
key a flip can change, and the flip itself with its tracked observable
(magnetization or anyon count).  The keys and their rates come from
``_shared.flip_rates``, the rate law that the exact generator reads too.
The geometry comes from the model's tables: ring and torus Ising read one
``neighbours`` table, the toric code its edge/plaquette incidence tables.

Every trajectory reads one (e, u1, u2) triple per event from its tape, its
own ``numpy.random.Generator`` read through ``_shared.triples`` (the
``_shared`` docstring fixes how tapes are drawn and seeded).  The draw rule
is fixed so that any implementation reproduces it exactly: ``total`` is the
sum of bucket size times rate in class-key order, added one class at a time
from 0.0; the waiting time is e / total; the class is the first one of
positive weight whose running sum exceeds u1 * total (the last one of
positive weight if rounding makes u1 * total equal total); the site is the
min(int(u2 * n), n - 1)-th of the class's n members in ascending site order.

One event loop drives every trajectory but one case.  Recorded runs,
first-passage runs and toric-code memory runs differ only in the hooks they
pass to it: one per probe, one per event before the flip, and a stop test
after the flip.  The case is ``first_passage`` on IsingMeanField with the
default predicate.  There the rates are functions of M alone and the stop
test is M <= 0, so which spin of the chosen class flips changes nothing the
run reads: u2 is never used, and a batch of trajectories is stepped in
lockstep as a walk in M (``_mean_field_walk``), with every time equal to the
loop's by ``==``.  Each entry point takes beta as an argument and a seed as
an integer >= 0, and every decode, ``"matching"`` included, is one call of a
decoder function.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from ._shared import BLOCK, blocks, check_count, check_real, each, flip_rates, run_chunks, triples
from .lattice import (LatticeModel, SpinConfiguration, Syndrome, _as_error_set,
                      _as_spins, build_model, crossing_sign)
from . import decoder as _decoder_mod

_FLOAT_MAX = math.nextafter(math.inf, 0.0)  # the largest float


@dataclass(frozen=True)
class SimulationParams:
    """Ensemble parameters: inverse temperature (finite, >= 0), horizon (> 0,
    inf allowed), size, and probe interval (None or finite, > 0)."""

    beta: float
    t_max: float
    n_traj: int = 1
    probe_cadence: float | None = None

    def __post_init__(self):
        check_real("beta", self.beta, least=0)
        check_real("t_max", self.t_max, above=0, inf=True)
        check_count("n_traj", self.n_traj)
        if self.probe_cadence is not None:
            check_real("probe_cadence", self.probe_cadence, above=0)


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
        seed: the integer seed the trajectory's tape was derived from.
        events: list of (time, EventClass), strictly increasing times.
        probes: list of (time, observable) sampled on the probe cadence
            (magnetization for Ising kinds, anyon count for Kitaev2D).
        final_state: SpinConfiguration (Ising) or frozenset of edges (Kitaev).
    """

    seed: int
    events: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    final_state: object = None


@dataclass(frozen=True, eq=False)
class LifetimeResult:
    """First-passage ensemble summary; censored runs enter at t_max (lower bound).
    Equality is identity."""

    mean: float
    stderr: float
    n_traj: int
    censored: int
    times: np.ndarray = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# the n-fold-way sampler

class _Sampler:
    """Rate-class buckets and the draw, shared by every model kind.

    A kind's subclass sets ``affected`` (per site, the sites whose key its
    flip can change) and ``obs`` (the tracked observable) before calling
    ``__init__``, and implements ``key(i)`` (class of site i in the current
    state) and ``flip_state(i)`` (flip site i and update ``obs``).  ``rates``
    and the class ``keys`` in draw order come from ``flip_rates``; the
    mean-field kind overrides :meth:`rate_table`.  ``members[k]`` lists the
    sites of class k in ascending order and ``key_of[i]`` is the class of
    site i.
    """

    def __init__(self, model: LatticeModel, beta: float):
        self.model, self.beta = model, beta
        self.rates = flip_rates(model, beta, self.obs)  # M of the Ising kinds
        self.keys = tuple(self.rates)
        self.members = {k: [] for k in self.keys}
        self.key_of = [self.key(i) for i in range(len(self.affected))]
        for i, k in enumerate(self.key_of):
            self.members[k].append(i)

    def rate_table(self) -> dict:
        return self.rates

    def draw(self, tape):
        """(waiting time, site, rate) of the next event, or None when frozen.

        Reads one (e, u1, u2) triple from ``tape`` unless frozen; see the
        module docstring for the rule.
        """
        rates = self.rate_table()
        members = self.members
        keys = self.keys
        total = 0.0
        for k in keys:
            total += len(members[k]) * rates[k]
        if total <= 0.0:
            return None
        e, u1, u2 = next(tape)
        u = u1 * total
        acc = 0.0
        for k in keys:
            w = len(members[k]) * rates[k]
            if w > 0.0:
                acc += w
                chosen = k
                if acc > u:
                    break
        lst = members[chosen]
        n = len(lst)
        return e / total, lst[min(int(u2 * n), n - 1)], rates[chosen]

    def flip(self, i: int):
        """Flip site i and move each affected site whose class changed into
        its new bucket, by bisection, so every bucket stays sorted."""
        self.flip_state(i)
        members, key_of = self.members, self.key_of
        for j in self.affected[i]:
            new = self.key(j)
            old = key_of[j]
            if new != old:
                lst = members[old]
                del lst[bisect_left(lst, j)]
                insort(members[new], j)
                key_of[j] = new


class _IsingSampler(_Sampler):
    """Spins as a list of +-1; the observable is the magnetization M."""

    def __init__(self, model: LatticeModel, beta: float, initial):
        spins = (SpinConfiguration.all_up(model.N) if initial is None
                 else _as_spins(model, initial))
        self.s = spins.spins.tolist()
        self.obs = sum(self.s)
        super().__init__(model, beta)
        self.tags = dict.fromkeys(self.keys, "ising-flip")

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

    def __init__(self, model: LatticeModel, beta: float, initial):
        self.nbrs = model.neighbours.tolist()
        self.affected = [(i, *nb) for i, nb in enumerate(self.nbrs)]
        super().__init__(model, beta, initial)

    def key(self, i: int) -> int:
        s = self.s
        h = 0
        for j in self.nbrs[i]:
            h += s[j]
        return s[i] * h


class _MeanFieldSampler(_IsingSampler):
    """Curie-Weiss Ising: class = s_i; the rates are a function of M, each
    table computed once per M visited."""

    def __init__(self, model: LatticeModel, beta: float, initial):
        self.affected = [(i,) for i in range(model.N)]
        super().__init__(model, beta, initial)
        self.tables = {self.obs: self.rates}

    def key(self, i: int) -> int:
        return self.s[i]

    def rate_table(self) -> dict:
        M = self.obs
        table = self.tables.get(M)
        if table is None:
            table = self.tables[M] = flip_rates(self.model, self.beta, M)
        return table


class _KitaevSampler(_Sampler):
    """One-sector toric code; the observable is the anyon count.

    Edge classes by adjacent-plaquette occupation: 0 occupied -> pair
    creation, 1 occupied -> anyon hop, 2 occupied -> pair annihilation.
    """

    tags = {0: "create-pair", 1: "move-anyon", 2: "annihilate-pair"}

    def __init__(self, model: LatticeModel, beta: float, initial, name: str = "initial"):
        self.errors = set() if initial is None else set(_as_error_set(model, initial, name))
        self.ep = model.edge_plaquettes.tolist()
        self.anyons = set()
        for e in self.errors:
            self.anyons ^= set(self.ep[e])
        self.obs = len(self.anyons)
        pe = model.plaquette_edges.tolist()
        self.affected = [tuple(dict.fromkeys(pe[p] + pe[q])) for p, q in self.ep]
        super().__init__(model, beta)

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


def _sampler(model: LatticeModel, beta: float, initial=None, name: str = "initial") -> _Sampler:
    """Sampler of the model's kind, started from ``initial`` (default: all up /
    no errors), the caller's argument ``name``.  Raises ValueError for a
    state that does not fit the model."""
    if model.kind == "Kitaev2D":
        return _KitaevSampler(model, beta, initial, name)
    if model.kind == "IsingMeanField":
        return _MeanFieldSampler(model, beta, initial)
    return _LocalFieldSampler(model, beta, initial)


def _evolve(sampler: _Sampler, tape, t_max: float, cadence=None,
            on_probe=None, on_event=None, stop=None) -> tuple[float, bool]:
    """Run one trajectory from t = 0; returns the time it ended and whether
    it ended at the horizon ``t_max`` (censored).

    ``on_probe(t)`` fires at each cadence point up to the next event and
    ``t_max``; a true return ends the run at that probe time.  ``on_event(t,
    site, rate)`` sees each event before its flip, and a true ``stop()``
    after the flip ends the run at the event time.  Otherwise the run ends
    at ``t_max``; if that is inf, a next event time beyond float range (the
    total rate is zero or too small) raises RuntimeError.
    """
    t = 0.0
    next_probe = cadence if cadence else math.inf
    last = _FLOAT_MAX if t_max == math.inf else math.inf  # the latest event time allowed
    while True:
        drawn = sampler.draw(tape)
        if drawn is None:
            t_next = math.inf
        else:
            dt, site, rate = drawn
            t_next = t + dt
        if t_next > last:
            raise RuntimeError("absorbing state: no event in finite time and t_max is infinite")
        while next_probe <= min(t_next, t_max):
            if on_probe(next_probe):
                return next_probe, False
            next_probe += cadence
        if t_next > t_max:
            return t_max, True
        t = t_next
        if on_event is not None:
            on_event(t, site, rate)
        sampler.flip(site)
        if stop is not None and stop():
            return t, False


# ---------------------------------------------------------------------------
# public operations


def classify_flip(model: LatticeModel, state, site: int, beta: float) -> EventClass:
    """Rate and event class of flipping one site in the given state at
    inverse temperature ``beta`` (finite, >= 0), by the rate law
    ``_shared.flip_rates``.
    """
    check_real("beta", beta, least=0)
    site = check_count("site", site, least=0)
    if site >= model.N:
        noun = "edge" if model.kind == "Kitaev2D" else "site"
        raise ValueError(f"invalid {noun} index: {site}")
    sampler = _sampler(model, beta, state, "state")
    k = sampler.key_of[site]
    return EventClass(sampler.tags[k], site, sampler.rate_table()[k])


def simulate_trajectory(model: LatticeModel, params: SimulationParams,
                        seed=0, initial=None) -> TrajectoryRecord:
    """One exact Gillespie trajectory with a full event record.

    Args:
        model: lattice model.
        params: simulation parameters.
        seed: integer >= 0; identical inputs give bit-identical records.
        initial: optional starting state (default: all-up / no errors): a
            SpinConfiguration or a +-1 sequence of the model's size for Ising
            kinds, an edge iterable or SpinConfiguration for Kitaev2D.

    Returns:
        A :class:`TrajectoryRecord`; probes hold magnetization (Ising) or
        anyon count (Kitaev) on the cadence grid.

    Raises:
        ValueError: for a bad ``seed``, or an ``initial`` that does not fit.
    """
    check_count("seed", seed, least=0)
    sampler = _sampler(model, params.beta, initial)
    record = TrajectoryRecord(seed=int(seed))

    def probe(t):
        record.probes.append((t, float(sampler.obs)))

    def event(t, site, rate):
        tag = sampler.tags[sampler.key_of[site]]
        record.events.append((t, EventClass(tag, site, rate)))

    _evolve(sampler, triples(np.random.default_rng(seed)), params.t_max,
            params.probe_cadence, probe, event)
    record.final_state = sampler.final_state()
    return record


def magnetization_nonpositive(state) -> bool:
    """Default Ising lifetime predicate: total magnetization has left +."""
    return int(np.sum(state)) <= 0


def _first_passage_once(model, params, predicate, tape) -> tuple[float, bool]:
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
    return _evolve(sampler, tape, params.t_max, stop=stop)


def _mean_field_walk(model, params, tapes) -> list:
    """First-passage (time, censored) pairs under the default predicate on
    IsingMeanField, one per tape, stepped together as a walk in M.

    The state is d = N - M, twice the number of down spins.  Every round
    reads the next triple of each live row (the draw rule of the module
    docstring without its site choice): the class weights ``w_dn`` and
    ``w_up`` and their ``total`` are those of ``_Sampler.draw``, taken from
    tables built once from ``flip_rates``, the -1 class is chosen iff ``w_dn
    > u1 * total`` or ``w_up`` is 0 (``w_dn`` is set to inf there) and d
    moves by 2 against the chosen class.  A block of a tape is taken in two
    passes: d over its columns, then every waiting time ``e / total`` at
    once, added in order by ``np.add.accumulate``.  These are the float
    operations of ``_evolve``, with its end rules: a total of 0 gives the
    event time inf, and for ``t_max`` = inf an event time beyond float range
    raises, so every time equals the event loop's by ``==``.
    """
    N, t_max = model.N, params.t_max
    end = N + N % 2  # the first even d >= N: M <= 0, and nothing moves
    w_dn, total = np.zeros(end + 2), np.zeros(end + 2)
    nxt = np.full(end + 2, end)  # d after an up flip (at d) or a down flip (at d + 1)
    for d in range(0, N, 2):
        rates = flip_rates(model, params.beta, N - d)
        dn, up = d // 2 * rates[-1], (N - d // 2) * rates[1]
        w_dn[d], total[d] = math.inf if dn > 0.0 and up == 0.0 else dn, dn + up
        nxt[d], nxt[d + 1] = d + 2, d - 2
    last = t_max if t_max < math.inf else _FLOAT_MAX  # the latest event time allowed
    out, ended_late = np.empty(len(tapes)), np.empty(len(tapes), dtype=bool)
    live = np.arange(len(tapes))  # the tape index of each live row
    d, t = np.zeros(live.size, dtype=np.intp), np.zeros(live.size)
    while live.size:
        exps, u1s = blocks([tapes[i] for i in live.tolist()])
        u1s = u1s.T.copy()
        # d before each column, then after the last one
        ds = np.empty((BLOCK + 1, live.size), dtype=np.intp)
        ds[0] = d
        for c in range(BLOCK):
            dc = ds[c]
            np.take(nxt, dc + (w_dn[dc] > u1s[c] * total[dc]), out=ds[c + 1])
        ts = np.empty((BLOCK + 1, live.size))  # t before each column, then each event time
        ts[0] = t
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(exps.T, total[ds[:-1]], out=ts[1:])  # inf (or nan) where frozen
            ts = np.add.accumulate(ts, axis=0)[1:]
        late = ~(ts <= last)  # no event by t_max, or none in finite time
        stop = late | (ds[1:] >= N)
        done = stop.any(axis=0)
        rows = np.flatnonzero(done)
        col = stop[:, rows].argmax(axis=0)
        censored = late[col, rows]
        if t_max == math.inf and censored.any():
            raise RuntimeError("absorbing state: no event in finite time and t_max is infinite")
        out[live[rows]] = np.where(censored, t_max, ts[col, rows])
        ended_late[live[rows]] = censored
        keep = ~done
        live, d, t = live[keep], ds[BLOCK][keep], ts[BLOCK - 1][keep]
    return list(zip(out.tolist(), ended_late.tolist()))


def _summarize(runs: list) -> LifetimeResult:
    """Summary of (end time, censored) pairs, one per trajectory."""
    times = np.array([t for t, _ in runs])
    censored = sum(c for _, c in runs)
    mean = float(np.mean(times))
    stderr = float(np.std(times, ddof=1) / math.sqrt(len(times))) if len(times) > 1 else 0.0
    return LifetimeResult(mean, stderr, len(times), censored, times)


def first_passage(model: LatticeModel, params: SimulationParams, predicate=None,
                  seed=0, workers: int = 1) -> LifetimeResult:
    """Mean first time an ensemble of trajectories satisfies a predicate.

    Trajectories start from the ordered state (all spins up / no errors).
    The default predicate, for the Ising kinds, is the magnetization sign
    change (:func:`magnetization_nonpositive`), the classical memory-failure
    criterion.  Runs reaching t_max enter the mean censored at t_max, so the
    reported lifetime is a lower bound; the censored count is part of the
    result.

    Args:
        model: lattice model.
        params: ensemble parameters (beta, t_max, n_traj).
        predicate: state -> bool, false initially (picklable if workers > 1).
        seed: master seed >= 0; trajectory i uses (seed, i) for any workers.
        workers: process count (results are identical for any value).

    Raises:
        ValueError: for Kitaev2D without a predicate, a predicate already
            true in the initial state, or a bad ``seed`` or ``workers``.
    """
    if predicate is None and model.kind == "Kitaev2D":
        raise ValueError("Kitaev2D needs an explicit predicate: the default "
                         "(magnetization sign) does not apply to the toric code")
    if predicate is None and model.kind == "IsingMeanField":
        batch = _mean_field_walk, (model, params)
    else:
        batch = each, (_first_passage_once, model, params, predicate)
    return _summarize(run_chunks(*batch, seed, params.n_traj, workers))


def _kitaev_lifetime_once(model, params, decoder, op, tape) -> tuple[float, bool]:
    """First probe time at which the (possibly dressed) logical reads -1, or
    (t_max, True) if there is none by the horizon."""
    sampler = _KitaevSampler(model, params.beta, None)
    op_support = op.support
    L = model.L
    cadence = params.probe_cadence
    if cadence is None:  # +inf (no probe) where e^{2 beta} is beyond float range
        cadence = (0.5 * math.exp(2.0 * params.beta) / (2 * L * L)
                   if 2.0 * params.beta <= math.log(_FLOAT_MAX) else math.inf)
    if decoder == "matching":  # looked up on the module, where tracers wrap it
        decoder = _decoder_mod.decode_matching
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
            try:
                corr = decoder(syn, L)
            except Exception as exc:
                raise RuntimeError(
                    f"decoder failed at t={t:g} on syndrome {sorted(syn.anyons)}") from exc
            sign = crossing_sign(corr.edges, op)
            sign_cache[key] = sign
        return bare * sign == -1

    return _evolve(sampler, tape, params.t_max, cadence, probe, event)


def kitaev_memory_lifetime(L: int, params: SimulationParams, decoder="matching",
                           seed=0, workers: int = 1, mu: int = 1,
                           move_rate: float = 1.0) -> LifetimeResult:
    """Ensemble lifetime of an encoded toric-code bit under thermal noise.

    Each trajectory starts in the clean code state; on the probe cadence the
    syndrome is extracted, decoded (unless ``decoder="bare"``), and the run
    fails at the first probe where the corrected (or bare) logical reads -1.
    The probe cadence defaults to half the mean first-event time,
    e^{2 beta} / (4 L^2), or to +inf (no probe: the run is censored at
    t_max) where e^{2 beta} is beyond float range.

    Args:
        L: linear lattice size (>= 2).
        params: ensemble parameters.
        decoder: ``"matching"``, ``"bare"``, or a callable (Syndrome, L) ->
            Correction.
        seed: master seed >= 0 (per-trajectory derivation as in first_passage).
        workers: process count.
        mu: tracked logical direction (1 or 2).
        move_rate: anyon hop rate override.
    """
    from .lattice import logical_operator

    model = build_model("Kitaev2D", L=L, move_rate=move_rate)
    op = logical_operator(model, mu, "Z-type")
    if not (callable(decoder) or isinstance(decoder, str) and decoder in ("matching", "bare")):
        raise ValueError(f"unknown decoder: {decoder!r}")
    return _summarize(run_chunks(
        each, (_kitaev_lifetime_once, model, params, decoder, op), seed,
        params.n_traj, workers))
