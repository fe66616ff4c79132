"""Continuous-time Monte Carlo for the lattice models.

Exact rejection-free sampling by the Bortz-Kalos-Lebowitz n-fold way
(J. Comput. Phys. 17, 10 (1975)): waiting times are exponential in the total
escape rate and events are drawn proportionally to their rates.  One sampler
serves every model kind.  It keeps the sites in rate-class buckets -- an
Ising spin's class is its local field, a toric-code edge's class is the
occupation of its two plaquettes -- each bucket sorted by site, so an event
costs a pass over the few classes plus a bisection per class change.  That
is what makes the low-temperature runs feasible: a wait of order e^{2 beta}
is one exponential draw, not e^{2 beta} rejected sweeps.  The base sampler
owns the buckets and ``classes``, their (bucket, rate) pairs in class-key
order; a kind supplies only its start state with its tracked observable
(magnetization or anyon count), the key of a site computed from the state,
a flip that reports each class change as (site, old key, new key), its
class tags and its state views.  The keys and their rates come from
``_shared.flip_rates``, the rate law that the exact generator reads too.
The geometry comes from the model's tables: ring and torus Ising read one
``neighbours`` table, the toric code its edge/plaquette incidence tables.
They are read into tuples once per model (``_site_tables``), so a
trajectory's setup copies no table: at low temperature a toric-code
trajectory has only a handful of events, and that copy cost more than they
did.

Every trajectory reads one (e, u1, u2) triple per event from its tape, its
own ``numpy.random.Generator`` read through ``_shared.triples`` (the
``_shared`` docstring fixes how tapes are drawn and seeded).  The draw rule
is fixed so that any implementation reproduces it exactly: ``total`` is the
sum of bucket size times rate in class-key order, added one class at a time
from 0.0; the waiting time is e / total; the class is the first one of
positive weight whose running sum exceeds u1 * total (the last one of
positive weight if rounding makes u1 * total equal total); the site is the
min(int(u2 * n), n - 1)-th of the class's n members in ascending site order.

One event loop, ``_evolve``, drives every trajectory but one case; an event
is one pass of its body: the draw over ``classes``, then the kind's flip,
whose class changes it moves between buckets.  Recorded runs, first-passage
runs and toric-code memory runs differ only in the hooks they pass to it:
one per probe, one per event before the flip, and a stop test after the
flip.  The case is ``first_passage`` on IsingMeanField with the default
predicate.  There the rates are functions of M alone and the stop test is
M <= 0, so which spin of the chosen class flips changes nothing the run
reads: u2 is never used, and a batch of trajectories is stepped in lockstep
as a walk in M (``_mean_field_walk``), with every time equal to the loop's
by ``==``.  Each entry point takes beta as an argument and a seed as an
integer >= 0, and every decode, ``"matching"`` included, is one call of a
decoder function.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from ._shared import BLOCK, blocks, check_count, check_real, each, flip_rates, run_chunks, triples
from .lattice import (LatticeModel, SpinConfiguration, Syndrome, _as_error_set,
                      _as_spins, build_model, crossing_sign, logical_operator, syndrome)
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

@functools.lru_cache(maxsize=32)
def _site_tables(model: LatticeModel) -> tuple | None:
    """The geometry of a model's sites as tuples, built once per model and
    shared by all its samplers, which only read it: per spin its neighbours
    (Ising1D, Ising2D), per edge its two plaquettes, each with its other
    edges (Kitaev2D), or None (IsingMeanField, where the class is the spin
    itself)."""
    if model.kind == "Kitaev2D":
        pe = model.plaquette_edges.tolist()
        return tuple(tuple((p, tuple(j for j in pe[p] if j != e)) for p in pq)
                     for e, pq in enumerate(model.edge_plaquettes.tolist()))
    if model.kind == "IsingMeanField":
        return None
    return tuple(map(tuple, model.neighbours.tolist()))


class _Sampler:
    """Rate-class buckets shared by every model kind; ``_evolve`` draws from
    them and moves sites between them.

    ``__init__`` reads the model's ``geometry`` from :func:`_site_tables`,
    then calls the kind's ``start(initial, name)``, which sets the state and
    the tracked observable ``obs``.  Only then are the class ``keys`` in
    draw order and their rates read from ``flip_rates``: ``members[k]``
    lists the sites of class k in ascending order, ``key_of[i]`` is the
    class of site i, and ``classes`` holds the ``(members[k], rate)`` pairs
    in key order, the one table the draw reads.  From the default start
    every site is in one class, so one ``key(0)`` call fills them.  A kind
    supplies ``start``, ``key(i)`` (class of site i in the current
    state), ``flip(i)``, its class ``tags`` and its state views.
    ``flip(i)`` flips site i, updates ``obs`` and ``key_of`` (and
    ``classes`` where the rates move) and returns the ``(site, old key, new
    key)`` of every class change in the order made, a site more than once
    where it is reached twice; ``_evolve`` moves the sites between buckets.
    """

    def __init__(self, model: LatticeModel, beta: float, initial=None, name: str = "initial"):
        self.model, self.beta = model, beta
        self.geometry = _site_tables(model)
        self.start(initial, name)
        rates = flip_rates(model, beta, self.obs)  # M of the Ising kinds
        self.keys = tuple(rates)
        self.members = {k: [] for k in self.keys}
        self.classes = tuple((self.members[k], r) for k, r in rates.items())
        n = model.N
        if initial is None:  # all up or no errors: every site in one class
            k = self.key(0)
            self.key_of = [k] * n
            self.members[k].extend(range(n))
        else:
            self.key_of = [self.key(i) for i in range(n)]
            for i, k in enumerate(self.key_of):
                self.members[k].append(i)


class _IsingSampler(_Sampler):
    """Spins as a list of +-1; the observable is the magnetization M."""

    tags = dict.fromkeys(range(-4, 5), "ising-flip")  # every class key of the Ising kinds

    def start(self, initial, name: str):
        spins = (SpinConfiguration.all_up(self.model.N) if initial is None
                 else _as_spins(self.model, initial))
        self.s = spins.spins.tolist()
        self.obs = sum(self.s)

    def state_view(self) -> np.ndarray:
        return np.array(self.s, dtype=np.int8)

    def final_state(self) -> SpinConfiguration:
        return SpinConfiguration(self.state_view())


class _LocalFieldSampler(_IsingSampler):
    """Ring and square-lattice Ising: class = s_i * (sum of neighbour spins).
    A flip negates site i's class and moves each neighbour occurrence j
    (twice for a neighbour listed twice, at N = 2 or L = 2) by 2 s_i s_j."""

    def key(self, i: int) -> int:
        s = self.s
        h = 0
        for j in self.geometry[i]:
            h += s[j]
        return s[i] * h

    def flip(self, i: int) -> list:
        s, key_of = self.s, self.key_of
        si = s[i] = -s[i]
        self.obs += 2 * si
        k = key_of[i]
        key_of[i] = -k
        changes = [(i, k, -k)] if k else []
        d = 2 * si
        for j in self.geometry[i]:
            k = key_of[j]
            new = key_of[j] = k + d * s[j]
            changes.append((j, k, new))
        return changes


class _MeanFieldSampler(_IsingSampler):
    """Curie-Weiss Ising: class = s_i; the rates are a function of M, and a
    flip swaps in the ``classes`` of the new M, each built once per M visited."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tables = {self.obs: self.classes}

    def key(self, i: int) -> int:
        return self.s[i]

    def flip(self, i: int) -> tuple:
        s = self.s
        si = s[i] = -s[i]
        self.key_of[i] = si
        M = self.obs = self.obs + 2 * si
        classes = self.tables.get(M)
        if classes is None:
            rates = flip_rates(self.model, self.beta, M)
            classes = self.tables[M] = tuple((self.members[k], r) for k, r in rates.items())
        self.classes = classes
        return ((i, -si, si),)


class _KitaevSampler(_Sampler):
    """One-sector toric code; the observable is the anyon count.

    Edge classes by adjacent-plaquette occupation: 0 occupied -> pair
    creation, 1 occupied -> anyon hop, 2 occupied -> pair annihilation.  A
    flip maps the edge's class k to 2 - k and moves each other edge of its
    two plaquettes by +-1 as the plaquette fills or empties (twice for an
    edge of both, at L = 2).
    """

    tags = {0: "create-pair", 1: "move-anyon", 2: "annihilate-pair"}

    def start(self, initial, name: str):
        self.errors = set() if initial is None else set(_as_error_set(self.model, initial, name))
        # a clean start, that of every lifetime run, needs no syndrome call
        self.anyons = set(syndrome(self.model, self.errors).anyons) if self.errors else set()
        self.obs = len(self.anyons)

    def key(self, e: int) -> int:
        (p, _), (q, _) = self.geometry[e]
        return (p in self.anyons) + (q in self.anyons)

    def flip(self, e: int) -> list:
        self.errors ^= {e}
        anyons, key_of = self.anyons, self.key_of
        k = key_of[e]
        key_of[e] = 2 - k
        changes = [(e, k, 2 - k)] if k != 1 else []
        for p, edges in self.geometry[e]:
            d = -1 if p in anyons else 1
            anyons ^= {p}
            for j in edges:
                k = key_of[j]
                new = key_of[j] = k + d
                changes.append((j, k, new))
        self.obs = len(anyons)
        return changes

    def state_view(self) -> frozenset:
        return frozenset(self.errors)

    final_state = state_view


_SAMPLERS = {"Ising1D": _LocalFieldSampler, "Ising2D": _LocalFieldSampler,
             "IsingMeanField": _MeanFieldSampler, "Kitaev2D": _KitaevSampler}


def _sampler(model: LatticeModel, beta: float, initial=None, name: str = "initial") -> _Sampler:
    """Sampler of the model's kind, started from ``initial`` (default: all up /
    no errors), the caller's argument ``name``.  Raises ValueError for a
    state that does not fit the model."""
    return _SAMPLERS[model.kind](model, beta, initial, name)


def _evolve(sampler: _Sampler, tape, t_max: float, cadence=None,
            on_probe=None, on_event=None, stop=None) -> tuple[float, bool]:
    """Run one trajectory from t = 0; returns the time it ended and whether
    it ended at the horizon ``t_max`` (censored).

    An event reads one triple from ``tape`` (none if the total rate is 0),
    and moves by bisection keep every bucket sorted.  ``on_probe(t)`` fires
    at each cadence point up to the next event and ``t_max``; a true return
    ends the run at that probe time.  ``on_event(t, site, rate)`` sees each
    event before its flip, and a true ``stop()`` after the flip ends the run
    at the event time.  Otherwise the run ends at ``t_max``; if that is inf,
    a next event time beyond float range (the total rate is zero or too
    small) raises RuntimeError.
    """
    members, flip = sampler.members, sampler.flip
    t = 0.0
    next_probe = cadence if cadence else math.inf
    last = _FLOAT_MAX if t_max == math.inf else math.inf  # the latest event time allowed
    while True:
        classes = sampler.classes
        total = 0.0
        for lst, r in classes:
            total += len(lst) * r
        if total <= 0.0:
            t_next = math.inf
        else:
            e, u1, u2 = next(tape)
            u = u1 * total
            acc = 0.0
            for lst, r in classes:
                w = len(lst) * r
                if w > 0.0:
                    acc += w
                    chosen, rate = lst, r
                    if acc > u:
                        break
            n = len(chosen)
            pos = int(u2 * n)
            site = chosen[pos if pos < n else n - 1]
            t_next = t + e / total
        if t_next > last:
            raise RuntimeError("absorbing state: no event in finite time and t_max is infinite")
        while next_probe <= t_next and next_probe <= t_max:
            if on_probe(next_probe):
                return next_probe, False
            next_probe += cadence
        if t_next > t_max:
            return t_max, True
        t = t_next
        if on_event is not None:
            on_event(t, site, rate)
        for j, old, new in flip(site):
            lst = members[old]
            del lst[bisect_left(lst, j)]
            insort(members[new], j)
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
    return EventClass(sampler.tags[k], site, sampler.classes[sampler.keys.index(k)][1])


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
        ValueError: for an infinite ``t_max`` (a recording has no stop rule),
            a bad ``seed``, or an ``initial`` that does not fit.
    """
    if params.t_max == math.inf:
        raise ValueError("simulate_trajectory needs a finite t_max: a recording has no stop rule")
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
    ``w_up`` and their ``total`` are those of ``_evolve``'s draw, taken from
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
            true in the initial state, a ``probe_cadence`` (first passage
            never probes), or a bad ``seed`` or ``workers``.
    """
    if params.probe_cadence is not None:
        raise ValueError(f"probe_cadence must be None: first passage never probes, "
                         f"got {params.probe_cadence!r}")
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
    sampler = _sampler(model, params.beta)
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
                if corr.L != L:
                    raise ValueError(f"correction is for L={corr.L}, not L={L}")
                sign = crossing_sign(corr.edges, op)
            except Exception as exc:
                raise RuntimeError(
                    f"decoder failed at t={t:g} on syndrome {sorted(syn.anyons)}") from exc
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
    model = build_model("Kitaev2D", L=L, move_rate=move_rate)
    op = logical_operator(model, mu, "Z-type")
    if not (callable(decoder) or isinstance(decoder, str) and decoder in ("matching", "bare")):
        raise ValueError(f"unknown decoder: {decoder!r}")
    return _summarize(run_chunks(
        each, (_kitaev_lifetime_once, model, params, decoder, op), seed,
        params.n_traj, workers))
