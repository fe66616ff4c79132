"""Helpers shared by memlab's modules.

The heat-bath rate, each model kind's flip-rate law, the one number rule,
the random-stream convention of every sampler, and the one process fan-out
that hands an ensemble of independent trajectories to a batch sampler in
chunks.

The number rule of the library and of the ``cli`` config schema: a real
(:func:`check_real`) is a non-bool real number within float range, not NaN,
within its argument's bounds and finite unless the argument allows inf; a
count or index (:func:`check_count`) is a non-bool integer, of at least its
least value where it has one.  Anything else raises a ValueError that starts
with the argument's name.

Every trajectory reads its randomness from its tape and from nothing else:
the tape is the trajectory's own ``numpy.random.Generator``.  A seed is an
integer >= 0.  Trajectory i of an ensemble with master seed s reads
``default_rng(SeedSequence(s, spawn_key=(i,)))``, so results never depend on
how many workers ran them; a lone recorded trajectory reads
``default_rng(s)``.  A tape is drawn ``BLOCK`` triples (e, u1, u2) at a time,
first ``standard_exponential(BLOCK)``, then ``random((BLOCK, 2))``: an
exponential and two uniforms per triple.  Each sampler reads its tapes one
way.  The lattice samplers read one triple per event (``dynamics`` gives that
rule) through :func:`triples`.  The two-level entropy-production sampler
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
from numpy.random import SeedSequence, default_rng


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


def _chunk(args):
    batch, common, master_seed, lo, hi = args
    out = []
    for start in range(lo, hi, _ROWS):
        out += batch(*common, [default_rng(SeedSequence(master_seed, spawn_key=(i,)))
                               for i in range(start, min(start + _ROWS, hi))])
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
        ValueError: ``master_seed`` < 0, ``workers`` < 1, or either not an integer.
    """
    check_count("seed", master_seed, least=0)
    check_count("workers", workers)
    if workers == 1:
        return _chunk((batch, common, master_seed, 0, n_traj))
    from multiprocessing import Pool

    bounds = np.linspace(0, n_traj, workers + 1).astype(int)
    jobs = [(batch, common, master_seed, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with Pool(processes=workers) as pool:
        parts = pool.map(_chunk, jobs)
    return [x for part in parts for x in part]
