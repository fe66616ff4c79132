"""Fixed-seed fingerprints of the random stream.

Each fingerprint is the sha256 of the repr of a run's full output on a small
size.  A change to the tape (block size, the order of its draws), to the
order of the sites within a bucket, or to the total-rate or running-sum
expressions changes at least one of them, so a refactor of the samplers
must leave every value here untouched.
"""

import hashlib

import pytest

from memlab import (SimulationParams, build_model, entropy_production_samples,
                    first_passage, kitaev_memory_lifetime, sawtooth_schedule,
                    simulate_trajectory)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _final(state):
    if isinstance(state, frozenset):
        return sorted(state)
    return state.spins.tolist()


TRAJECTORY_CASES = {
    "Ising1D": (dict(N=12), 0.6, 60.0,
                "50ca1fb6f2e237443a6871072a4aa8b7e99560ecea6d4039b705e7cb0a56351f"),
    "IsingMeanField": (dict(N=9), 0.9, 20.0,
                       "a7f9bbceb21e0fbe1b2eb9d12be01ff6b3f07ef33eaa815503dc8a70a6f16f53"),
    "Ising2D": (dict(L=4), 0.3, 30.0,
                "9b5cdf77f3b79727e822a4c29ee33df1bfd9ea80bbd4e6617b824ba75b0732e8"),
    "Kitaev2D": (dict(L=3), 0.6, 20.0,
                 "6a69afe1d32893e0e2f04cacf4e38c86825d86cc316af7d5f997ff5bfde0121a"),
}


@pytest.mark.parametrize("kind", sorted(TRAJECTORY_CASES))
def test_trajectory_stream(kind):
    size, beta, t_max, expected = TRAJECTORY_CASES[kind]
    model = build_model(kind, **size)
    params = SimulationParams(beta=beta, t_max=t_max, probe_cadence=0.5)
    rec = simulate_trajectory(model, params, seed=17)
    assert _sha((rec.seed, rec.events, rec.probes, _final(rec.final_state))) == expected


PASSAGE_CASES = {
    "Ising1D": (dict(N=8), 0.8,
                "3ad6ede3766729c258fdca9918ddd18ceb0a4cc4b734943948da4274eb3ded55"),
    "IsingMeanField": (dict(N=12), 0.8,
                       "150b31df08eb97013c71f1aa2747506a0713743ff8bc549f4bbb6dc1ead5ffee"),
    "Ising2D": (dict(L=3), 0.5,
                "22c6af91dda1d6e5d55ec4a932e2e33fee56130ffcf999ea86531f051b6e1ce7"),
}


@pytest.mark.parametrize("kind", sorted(PASSAGE_CASES))
def test_first_passage_stream(kind):
    size, beta, expected = PASSAGE_CASES[kind]
    model = build_model(kind, **size)
    params = SimulationParams(beta=beta, t_max=200.0, n_traj=20)
    res = first_passage(model, params, seed=31)
    assert _sha(res.times.tolist()) == expected


@pytest.mark.parametrize("decoder,expected", [
    ("matching", "b215cce9c55ffe506c3c9103833c0cd888a3a732839f90b2c65a9417df133cea"),
    ("bare", "9fe4f861bab70b532966b496c95fa0f47ee42f777a0b10f64d44436f9cbca8cc"),
], ids=["matching", "bare"])
def test_kitaev_lifetime_stream(decoder, expected):
    params = SimulationParams(beta=1.4, t_max=400.0, n_traj=12)
    res = kitaev_memory_lifetime(4, params, decoder=decoder, seed=13)
    assert _sha(res.times.tolist()) == expected


def test_entropy_production_stream():
    schedule = sawtooth_schedule(3, 1.0, 2.0, beta=1.0)
    res = entropy_production_samples(schedule, 200, seed=5)
    assert _sha(res.samples.tolist()) == \
        "3e8e7643efc3e349229d58a0c5f1d62c6dbc536f0df338023714423aba0994ef"
