"""Helpers shared by ``dynamics``, ``exact`` and ``thermo``.

The heat-bath rate, each model kind's flip-rate law, the per-trajectory seed
derivation, and the one process fan-out that runs an ensemble of independent
trajectories in chunks.
"""

from __future__ import annotations

import math

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


def seed_sequence(master_seed, index: int) -> np.random.SeedSequence:
    """Generator seed of trajectory ``index`` of an ensemble."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def _chunk(args):
    one, common, master_seed, lo, hi = args
    return [one(*common, seed_sequence(master_seed, i)) for i in range(lo, hi)]


def run_chunks(one, common: tuple, master_seed, n_traj: int, workers: int) -> list:
    """``[one(*common, seed_sequence(master_seed, i)) for i in range(n_traj)]``.

    With ``workers > 1`` the index range is split into contiguous chunks run
    in a process pool (``one`` and ``common`` must pickle).  Each trajectory
    depends only on its index, so the result is the same for any worker count.
    """
    if workers <= 1:
        return _chunk((one, common, master_seed, 0, n_traj))
    from multiprocessing import Pool

    bounds = np.linspace(0, n_traj, workers + 1).astype(int)
    jobs = [(one, common, master_seed, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with Pool(processes=workers) as pool:
        parts = pool.map(_chunk, jobs)
    return [x for part in parts for x in part]
