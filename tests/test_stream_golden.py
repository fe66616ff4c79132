"""Fixed-seed fingerprints of the random stream.

Each fingerprint is the sha256 of the repr of a run's full output on a small
size.  A change that reorders draws, moves a site to another bucket slot or
rewrites the total-rate expression changes at least one of them, so a
refactor of the samplers must leave every value here untouched.
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
                "3308285118d2eadc56068c757ac56fb3ddf74882c4240997877d24114e6f2854"),
    "IsingMeanField": (dict(N=9), 0.9, 20.0,
                       "fb51be67312c39237997d8801cdb9281a8975159b4df0b60752062afbdfea0b8"),
    "Ising2D": (dict(L=4), 0.3, 30.0,
                "3c9931dfb5897d727849531e2366ccb4ba1c7474d11090c6d8d2b2b44505708c"),
    "Kitaev2D": (dict(L=3), 0.6, 20.0,
                 "28626888f6b37fd8a91443f2110659d41fc291a60bfdbefe2be07e3d65ee4742"),
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
                "0b2eee84cdaf83b90ad53ee7754e831ff42dcd09bebf82c9fcdad1920d554b4f"),
    "IsingMeanField": (dict(N=12), 0.8,
                       "5b6308134433f90f72294681b58cdf933e1392a2da6ca0cddeafdb76a01a3503"),
    "Ising2D": (dict(L=3), 0.5,
                "fdf3fbe43c4641f9d70a4cd01d72affb1d6cc2987f39714271d93cb3a1b0a0ae"),
}


@pytest.mark.parametrize("kind", sorted(PASSAGE_CASES))
def test_first_passage_stream(kind):
    size, beta, expected = PASSAGE_CASES[kind]
    model = build_model(kind, **size)
    params = SimulationParams(beta=beta, t_max=200.0, n_traj=20)
    res = first_passage(model, params, seed=31)
    assert _sha(res.times.tolist()) == expected


@pytest.mark.parametrize("decoder,expected", [
    ("matching", "fb19e28e8a67fc62139dd5850e451a742daf03e8da43270a5aac3b457ce776c8"),
    ("bare", "9e6b50bbda018308f167568abeb0adadd9ccb6fefbde71b57289c6d5a745b44c"),
])
def test_kitaev_lifetime_stream(decoder, expected):
    params = SimulationParams(beta=1.4, t_max=400.0, n_traj=12)
    res = kitaev_memory_lifetime(4, params, decoder=decoder, seed=13)
    assert _sha(res.times.tolist()) == expected


def test_entropy_production_stream():
    schedule = sawtooth_schedule(3, 1.0, 2.0, beta=1.0)
    res = entropy_production_samples(schedule, 200, seed=5)
    assert _sha(res.samples.tolist()) == \
        "14f305de743a6b488cc3f6a49b04e0df508690741c094863fe2fcdb37a39f103"
