"""Helpers shared by memlab's modules.

The heat-bath rate, each model kind's flip-rate law, the one number rule,
the random-stream convention of every sampler, and the one process fan-out
that hands an ensemble of independent trajectories to a batch sampler in
chunks.

The number rule of the library and of the ``cli`` config schema: a real
(:func:`check_real`) is a non-bool real number within float range, not NaN,
within its argument's bounds and finite unless the argument allows inf; a
count or index (:func:`check_count`; :func:`check_counts` for a set of them)
is a non-bool integer, of at least its least value where it has one.
Anything else raises a ValueError that starts with the argument's name.

Every trajectory reads its randomness from its tape and from nothing else:
the tape is the trajectory's own ``numpy.random.Generator``.  A seed is an
integer >= 0.  Trajectory i of an ensemble with master seed s reads
``default_rng(SeedSequence(s, spawn_key=(i,)))``, so results never depend on
how many workers ran them; a lone recorded trajectory reads
``default_rng(s)``.  The tapes of a list of consecutive trajectories are
derived together (:func:`_tapes`) and equal that definition state for state.
A tape is drawn ``BLOCK`` triples (e, u1, u2) at a time, first
``standard_exponential(BLOCK)``, then ``random((BLOCK, 2))``: an exponential
and two uniforms per triple.  Each sampler reads its tapes one way.  The
lattice samplers read one triple per event (``dynamics`` gives that rule)
through :func:`triples`.  The two-level entropy-production sampler
(``thermo``) reads them as follows: x_0 = 0 iff u1 of the first triple <
p_init[0]; each coupled step starts its clock at the step's start and every
thinning proposal reads the next triple: t += e / gamma, the step ends when t
reaches its end, and otherwise the proposal flips the state iff u1 * gamma <
the forward rate at t.  It does not use u2.  So every trajectory of that
sampler, and of the mean-field first passage of ``dynamics``, reads exactly
one triple per round, and both step their tapes together, a block of each at
a time (:func:`blocks`).
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence


def heat_bath(x: float) -> float:
    """1 / (1 + e^x), safe for large |x|."""
    if x > 500.0:
        return math.exp(-x)
    return 1.0 / (1.0 + math.exp(x))


def flip_rates(model, beta: float, M: int = 0) -> dict:
    """{class key: flip rate} of the model's kind, keys in draw order; the
    samplers and the exact generator both read it.

    Ising1D/2D: key s_i * (neighbour sum), heat bath of dE = 2 J key.
    IsingMeanField: key s_i, heat bath of dE = (2J/N)(key M - 1).  Kitaev2D:
    key = anyons on the edge's plaquettes; creation (0) at e^{-2 beta}, hop
    (1) at ``move_rate``, annihilation (2) at 1.
    """
    if model.kind == "Kitaev2D":
        return {0: math.exp(-2.0 * beta), 1: model.move_rate, 2: 1.0}
    if model.kind == "IsingMeanField":
        coupling = 2.0 * model.J / model.N
        return {k: heat_bath(beta * (coupling * (k * M - 1.0))) for k in (-1, 1)}
    z = model.neighbours.shape[1]
    return {k: heat_bath(beta * (2.0 * model.J * k)) for k in range(-z, z + 1, 2)}


def check_count(name: str, value, least: int | None = 1) -> int:
    """``int(value)``; a ValueError naming ``name`` unless a non-bool integer >=
    ``least`` (any integer if ``least`` is None)."""
    if type(value) is int and (least is None or value >= least):  # the common case, fast
        return value
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_counts(name: str, values, least: int | None = 1) -> frozenset:
    """The items of ``values`` as a frozenset, each checked by
    :func:`check_count`, which raises for the first bad one in their order."""
    items = values if type(values) in (frozenset, set, list, tuple) else list(values)
    # the common case, at C speed: every item a plain int, none below least
    if set(map(type, items)) <= {int} and (least is None or not items or min(items) >= least):
        return items if type(items) is frozenset else frozenset(items)
    return frozenset([check_count(name, v, least) for v in items])


def check_real(name: str, value, least=None, above=None, most=None, inf=False) -> float:
    """``float(value)``; a ValueError naming ``name`` unless it is a real by the
    number rule, >= ``least``, > ``above`` and <= ``most``, finite unless ``inf``."""
    x = math.nan
    if type(value) is float:  # the common case, without the slower ABC test
        x = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond float range
            pass
    if (math.isnan(x) or not (inf or math.isfinite(x)) or least is not None and x < least
            or above is not None and x <= above or most is not None and x > most):
        bounds = " and".join(f" {op} {b!r}" for op, b in
                             ((">=", least), (">", above), ("<=", most)) if b is not None)
        raise ValueError(f"{name} must be a {'' if inf else 'finite '}real number{bounds}, "
                         f"got {value!r}")
    return x


BLOCK = 64  # triples per block; part of the stream's definition


def _block(rng, exps=None, unis=None):
    """The next ``BLOCK`` triples of a tape: exponentials of shape (BLOCK,) and
    the uniform pairs (u1, u2) of shape (BLOCK, 2), written into ``exps`` and
    ``unis`` when they are given."""
    return rng.standard_exponential(BLOCK, out=exps), rng.random((BLOCK, 2), out=unis)


def triples(rng):
    """The tape ``rng`` read one (e, u1, u2) per ``next``."""
    while True:
        exps, unis = _block(rng)
        yield from zip(exps.tolist(), *unis.T.tolist())


def blocks(rngs):
    """The next block of each tape, one row per tape: its exponentials and its u1s."""
    exps, unis = np.empty((len(rngs), BLOCK)), np.empty((len(rngs), BLOCK, 2))
    for rng, e, u in zip(rngs, exps, unis):
        _block(rng, e, u)
    return exps, unis[:, :, 0].copy()


def each(one, *args) -> list:
    """``one(*common, triples(rng))`` for each tape, where ``args`` is ``*common,
    rngs``: the batch of a sampler that runs its trajectories one at a time."""
    *common, rngs = args
    return [one(*common, triples(rng)) for rng in rngs]


_ROWS = 1024  # tapes per batch call: bounds the lockstep block arrays' memory

# SeedSequence's hash (numpy NEP 19) on 32-bit words, in Python ints or uint64 arrays
_M32, _MULT_A, _MULT_B = 0xFFFFFFFF, 0x931E8875, 0x58F38DED


def _consts(const, n, mult=_MULT_A):
    """The n hash constants from ``const`` on, as a uint64 array."""
    return np.array([const * pow(mult, k, 1 << 32) & _M32 for k in range(n)], dtype=np.uint64)


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hashmix of ``value`` by the hash constant ``const``, and
    the next constant."""
    const_next = const * mult & _M32
    value = (value ^ const) * const_next & _M32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of the pool word ``x`` with the hashed word ``y``."""
    r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return r ^ r >> 16


class _State(ISeedSequence):
    """Hands PCG64 the words ``SeedSequence.generate_state(4, uint64)`` would."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


_STATE_CONSTS = _consts(0x8B51F9DD, 8, _MULT_B)  # generate_state's, one per 32-bit word


def _tapes(master_seed: int, lo: int, hi: int) -> list:
    """The tapes of trajectories lo..hi-1 (hi <= 2**32) of the master seed, each
    equal state for state to ``default_rng(SeedSequence(master_seed, spawn_key=(i,)))``.

    SeedSequence mixes its entropy words into a pool of four: the seed's words,
    zero-padded to four since a spawn key is present, then the key's one word
    i into each pool word.  The hash constants advance by the same steps
    whatever the words, so that last step and the state hash run on all the
    indices together, a column per constant.
    """
    words = [master_seed >> s & _M32 for s in range(0, master_seed.bit_length() or 1, 32)]
    words += [0] * (4 - len(words))
    pool, const = [], 0x43B0D7E5
    for w in words[:4]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[4:]:
        for dst in range(4):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    # a row per index: the key mixed into each pool word, then the eight state
    # words (pool words 0-3 twice), paired low word first into four uint64s
    keys = _hashmix(np.arange(lo, hi, dtype=np.uint64)[:, None], _consts(const, 4))[0]
    pools = _mix(np.array(pool, dtype=np.uint64), keys)
    state = _hashmix(np.tile(pools, 2), _STATE_CONSTS, _MULT_B)[0]
    state = state[:, 0::2] | state[:, 1::2] << 32
    return [Generator(PCG64(_State(row))) for row in state]


def _chunk(args):
    batch, common, master_seed, lo, hi = args
    out = []
    for start in range(lo, hi, _ROWS):
        out += batch(*common, _tapes(master_seed, start, min(start + _ROWS, hi)))
    return out


def run_chunks(batch, common: tuple, master_seed, n_traj: int, workers: int) -> list:
    """``batch(*common, rngs)`` on contiguous chunks of the ensemble, joined in
    index order.

    ``rngs`` is a list of at most ``_ROWS`` tapes, the Generators of
    consecutive trajectories in index order, and ``batch`` returns one result
    per tape (:func:`each` runs a one-trajectory sampler on each; a lockstep
    sampler steps them together).  With ``workers > 1`` the index range is
    split into contiguous chunks run in a process pool (``batch`` and
    ``common`` must pickle).  Each trajectory depends only on its index, so
    the result is the same for any worker count.

    Raises:
        ValueError: ``master_seed`` < 0, ``workers`` < 1, either not an
            integer, or ``n_traj`` above 2**32 (an index of 2**32 or more
            would make a two-word spawn key).
    """
    master_seed = check_count("seed", master_seed, least=0)
    workers = check_count("workers", workers)
    if n_traj > 1 << 32:
        raise ValueError(f"n_traj must be at most 2**32, got {n_traj!r}")
    if workers == 1:
        return _chunk((batch, common, master_seed, 0, n_traj))
    from multiprocessing import Pool

    bounds = np.linspace(0, n_traj, workers + 1).astype(int)
    jobs = [(batch, common, master_seed, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with Pool(processes=workers) as pool:
        parts = pool.map(_chunk, jobs)
    return [x for part in parts for x in part]
