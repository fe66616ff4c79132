"""Helpers shared by ``dynamics``, ``exact`` and ``thermo``.

The heat-bath rate function, the per-trajectory seed derivation, and the one
process fan-out that runs an ensemble of independent trajectories in chunks.
"""

from __future__ import annotations

import math

import numpy as np


def heat_bath(x: float) -> float:
    """1 / (1 + e^x), safe for large |x|."""
    if x > 500.0:
        return math.exp(-x)
    return 1.0 / (1.0 + math.exp(x))


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
