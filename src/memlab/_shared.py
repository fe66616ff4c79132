"""Helpers shared by ``dynamics``, ``exact`` and ``thermo``.

The heat-bath rate, each model kind's flip-rate law, the random-stream
convention of every sampler, and the one process fan-out that runs an
ensemble of independent trajectories in chunks.

Every trajectory reads its randomness from a tape (:class:`_Tape`) and from
nothing else.  Trajectory i of an ensemble with master seed s reads the tape
of ``SeedSequence(s, spawn_key=(i,))``, so results never depend on how many
workers ran them.  ``next(tape)`` gives one triple (e, u1, u2): an exponential
and two uniforms, drawn ``BLOCK`` triples at a time from ``default_rng``,
first ``standard_exponential(BLOCK)``, then ``random((BLOCK, 2))``.  The
lattice samplers read one triple per event (``dynamics`` gives that rule).
The two-level entropy-production sampler reads them as follows: x_0 = 0 iff
u1 of the first triple < p_init[0]; each coupled step starts its clock at the
step's start and every thinning proposal reads the next triple: t += e /
gamma, the step ends when t reaches its end, and otherwise the proposal
flips the state iff u1 * gamma < the forward rate at t.  It does not use u2.
"""

from __future__ import annotations

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


def check_count(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


BLOCK = 64  # triples per tape refill; part of the stream's definition


class _Tape:
    """A trajectory's random numbers: ``next(tape)`` gives one (e, u1, u2)."""

    __slots__ = ("rng", "exps", "unis", "i")

    def __init__(self, ss):
        self.rng = np.random.default_rng(ss)
        self.i = BLOCK

    def __next__(self):
        i = self.i
        if i == BLOCK:
            self.exps = self.rng.standard_exponential(BLOCK).tolist()
            self.unis = self.rng.random((BLOCK, 2)).tolist()
            i = 0
        self.i = i + 1
        u1, u2 = self.unis[i]
        return self.exps[i], u1, u2


def _chunk(args):
    one, common, master_seed, lo, hi = args
    return [one(*common, _Tape(np.random.SeedSequence(master_seed, spawn_key=(i,))))
            for i in range(lo, hi)]


def run_chunks(one, common: tuple, master_seed, n_traj: int, workers: int) -> list:
    """``one(*common, tape)`` for each trajectory's tape, in index order.

    With ``workers > 1`` the index range is split into contiguous chunks run
    in a process pool (``one`` and ``common`` must pickle).  Each trajectory
    depends only on its index, so the result is the same for any worker count.

    Raises:
        ValueError: ``workers`` is not an integer >= 1.
    """
    check_count("workers", workers)
    if workers == 1:
        return _chunk((one, common, master_seed, 0, n_traj))
    from multiprocessing import Pool

    bounds = np.linspace(0, n_traj, workers + 1).astype(int)
    jobs = [(one, common, master_seed, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with Pool(processes=workers) as pool:
        parts = pool.map(_chunk, jobs)
    return [x for part in parts for x in part]
