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

Every trajectory reads its randomness from a tape (:class:`_Tape`) and from
nothing else.  A seed is an integer >= 0.  Trajectory i of an ensemble with
master seed s reads the tape of ``SeedSequence(s, spawn_key=(i,))``, so
results never depend on how many workers ran them; a lone recorded trajectory
reads ``SeedSequence(s)``.  A tape is drawn ``BLOCK`` triples (e, u1, u2) at a
time from ``default_rng``, first ``standard_exponential(BLOCK)``, then
``random((BLOCK, 2))`` (:meth:`_Tape.block`): ``next(tape)`` gives one triple,
an exponential and two uniforms.  The lattice samplers read one triple per
event (``dynamics`` gives that rule).  The two-level entropy-production
sampler (``thermo``) reads them as follows: x_0 = 0 iff u1 of the first
triple < p_init[0]; each coupled step starts its clock at the step's start
and every thinning proposal reads the next triple: t += e / gamma, the step
ends when t reaches its end, and otherwise the proposal flips the state iff
u1 * gamma < the forward rate at t.  It does not use u2.  So every
trajectory of that sampler, and of the mean-field first passage of
``dynamics``, reads exactly one triple per round, and both step a batch of
trajectories in lockstep (:func:`lockstep`), reading each row's tape a block
at a time (:func:`blocks`).
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np


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


BLOCK = 64  # triples per tape refill; part of the stream's definition


class _Tape:
    """A trajectory's random numbers: ``next(tape)`` gives one (e, u1, u2).

    A reader takes either one triple at a time or whole blocks, never both.
    """

    __slots__ = ("rng", "exps", "unis", "i")

    def __init__(self, ss):
        self.rng = np.random.default_rng(ss)
        self.i = BLOCK

    def block(self, exps=None, unis=None):
        """The next ``BLOCK`` triples: exponentials of shape (BLOCK,) and the
        uniform pairs (u1, u2) of shape (BLOCK, 2), written into ``exps`` and
        ``unis`` when they are given."""
        return (self.rng.standard_exponential(BLOCK, out=exps),
                self.rng.random((BLOCK, 2), out=unis))

    def __next__(self):
        i = self.i
        if i == BLOCK:
            exps, unis = self.block()
            self.exps, self.unis = exps.tolist(), unis.tolist()
            i = 0
        self.i = i + 1
        u1, u2 = self.unis[i]
        return self.exps[i], u1, u2


def each(one, *args) -> list:
    """``one(*common, tape)`` for each tape, where ``args`` is ``*common, tapes``:
    the batch of a sampler that runs its trajectories one at a time."""
    *common, tapes = args
    return [one(*common, tape) for tape in tapes]


_ROWS = 1024  # trajectories stepped together: bounds the block arrays' memory


def lockstep(step, *args) -> list:
    """``step(*common, rows)`` on successive lists of up to ``_ROWS`` tapes,
    where ``args`` is ``*common, tapes``: the batch of a sampler that steps
    its trajectories together."""
    *common, tapes = args
    out = []
    while rows := list(itertools.islice(tapes, _ROWS)):
        out += step(*common, rows)
    return out


def blocks(tapes):
    """The next block of each tape, one row per tape: its exponentials and its u1s."""
    exps, unis = np.empty((len(tapes), BLOCK)), np.empty((len(tapes), BLOCK, 2))
    for tape, e, u in zip(tapes, exps, unis):
        tape.block(e, u)
    return exps, unis[:, :, 0].copy()


def _chunk(args):
    batch, common, master_seed, lo, hi = args
    return batch(*common, (_Tape(np.random.SeedSequence(master_seed, spawn_key=(i,)))
                           for i in range(lo, hi)))


def run_chunks(batch, common: tuple, master_seed, n_traj: int, workers: int) -> list:
    """``batch(*common, tapes)`` on contiguous chunks of the ensemble, joined in
    index order.

    ``tapes`` iterates, once and lazily, over the tapes of a chunk's
    trajectories in index order, and ``batch`` returns one result per tape
    (:func:`each` runs a one-trajectory sampler on each, :func:`lockstep`
    steps them together).  With
    ``workers > 1`` the index range is split into contiguous chunks run in a
    process pool (``batch`` and ``common`` must pickle).  Each trajectory
    depends only on its index, so the result is the same for any worker count.

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
