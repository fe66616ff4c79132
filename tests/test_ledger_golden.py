"""Fixed fingerprints of the driven two-level ledgers.

Each fingerprint is the sha256 of the repr of ``MasterSolution`` fields or
of 200 entropy-production samples.  The energy track has a fingerprint of
its own: it is evaluated with ``Segment.energies``, the float operations of
the integrator's right-hand side, and does not depend on the rate
convention; the other fields (time grid, populations, totals, per-interval
records, final populations) share one.  The schedules put jumps
at the start, at an interior boundary (two at once) and at the end, and
include decoupled segments, under both rate conventions.  A refactor of the
schedule walk must leave every value here untouched.
"""

import hashlib

import pytest

from memlab import (Jump, ProtocolSchedule, Segment, entropy_production_samples,
                    integrate_master, szilard_run)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _ledger_fields(sol):
    return (sol.ts.tolist(), sol.ps.tolist(), sol.work, sol.heat, sol.delta_u,
            sol.segments, sol.p_final.tolist())


SCHEDULES = {
    # jumps at the start, at an interior boundary and at the end; a
    # decoupled stretch between two coupled ramps
    "start-interior-end": ProtocolSchedule(
        segments=(Segment(0.0, 1.0, (0.0, 0.0), (0.0, 1.5)),
                  Segment(1.0, 2.0, (0.3, 0.3), (2.0, 0.5)),
                  Segment(2.0, 2.5, (0.3, 0.0), (0.5, 0.5), coupled=False),
                  Segment(2.5, 4.0, (0.0, 0.0), (0.5, 0.0))),
        jumps=(Jump(0.0, (0.2, 0.0), (1.0, 0.0)),
               Jump(1.0, (0.0, 0.3), (1.5, 2.0)),
               Jump(4.0, (0.0, 0.7), (0.0, 1.2))),
        gamma=1.3, beta=0.9),
    # two jumps at one interior boundary, then a decoupled tail
    "double-jump": ProtocolSchedule(
        segments=(Segment(0.0, 1.5, (0.0, 0.0), (1.0, 0.2)),
                  Segment(1.5, 3.0, (0.4, 0.0), (0.0, 1.1)),
                  Segment(3.0, 3.5, (0.0, 0.0), (1.1, 0.3), coupled=False)),
        jumps=(Jump(1.5, (0.0, 0.6), (0.2, 0.9)),
               Jump(1.5, (0.6, 0.4), (0.9, 0.0))),
        gamma=0.8, beta=1.4),
}


SOLUTION_CASES = {
    ("start-interior-end", "heat-bath"):
        "8571bf89ca3b32f6cdb01034b6c35b0fe4d671c5755abbc4e7f88f920bb0309c",
    ("start-interior-end", "metropolis"):
        "dc559c7032c7065332ce08f644fec3066111eccdee5ec7a48725f375108ec576",
    ("double-jump", "heat-bath"):
        "e345567d0dd9d1db4ddeebab8d047921b4b3e64299e605933f597cbcb9d4f8a9",
    ("double-jump", "metropolis"):
        "4086b1fbcbbcecf5ebc9cde4823d85e0def9eb2b2993a3b644ac91d234e2b4df",
}

ENERGY_TRACKS = {
    "start-interior-end": "cf8c7a49dfe2867b5aa67133ad6c30be6a31eb49d883ce1dfd7189bcc8e16a3e",
    "double-jump": "9964cabbfcd0608cc862ecb0dd7ca864ba6b99737f4e9bffcf01e21c01142314",
}


@pytest.mark.parametrize("name,rates", sorted(SOLUTION_CASES))
def test_master_solution_ledger(name, rates):
    sol = integrate_master(SCHEDULES[name], (0.7, 0.3), rates=rates)
    assert _sha(_ledger_fields(sol)) == SOLUTION_CASES[name, rates]
    assert _sha(sol.eps.tolist()) == ENERGY_TRACKS[name]


SIGMA_CASES = {
    ("start-interior-end", "heat-bath"):
        "c127d3c5b8ae49bcb3c1b1b270f5844e142ccd312a68bf1faeaa93b606c520ec",
    ("start-interior-end", "metropolis"):
        "23f27e91c2ce0b8be47756a5df6edc0ce16520ce9efdd0305e4c14977e41642f",
    ("double-jump", "heat-bath"):
        "0de4b9f8e993f18f078de3721fe81038e429680fce4c6739845503d72e3aba8c",
    ("double-jump", "metropolis"):
        "305312e59b7402bab13a105de51f4f2547c65f64a3ce785cbde964f134692663",
}


@pytest.mark.parametrize("name,rates", sorted(SIGMA_CASES))
def test_entropy_production_ledger(name, rates):
    res = entropy_production_samples(SCHEDULES[name], 200, seed=11, rates=rates)
    assert _sha(res.samples.tolist()) == SIGMA_CASES[name, rates]


@pytest.mark.parametrize("ramp_time,rates,expected", [
    (0.0, "heat-bath",
     "daad1d0b4c1d25d4c1cbbf4b4513ea514438ef0d4fd6048c529b555fe28a8c2b"),
    (3.0, "heat-bath",
     "8b353c85714db97d873c13abe683785b0bb3a59347a4b7f4aad98dbfac86d593"),
    (3.0, "metropolis",
     "cb11f4ff239afc65329cefda9e0f50242438943abc3fae9d7fa236f9a7eee4f1"),
])
def test_szilard_stroke_ledger(ramp_time, rates, expected):
    ledger = szilard_run(2.0, ramp_time, 1.2, 0.15, gamma=0.9, rates=rates)
    assert _sha((ledger.work_on_system, ledger.heat_into_system,
                 ledger.internal_energy_change, ledger.segments)) == expected
