"""Fixed fingerprints of the driven two-level ledgers.

Each fingerprint is the sha256 of the repr of ``MasterSolution`` fields or
of 200 entropy-production samples.  The energy track has a fingerprint of
its own: it is evaluated with ``Segment.energies``, the float operations of
the trajectory sampler, and does not depend on the rate
convention; the other fields (time grid, populations, totals, per-interval
records, final populations) share one.  The schedules put jumps
at the start, at an interior boundary (two at once) and at the end, and
include decoupled segments, under both rate conventions.  A refactor of the
schedule walk must leave every value here untouched.
"""

import hashlib

import pytest

from memlab import (Jump, ProtocolSchedule, Segment, entropy_production_samples,
                    integrate_master, sawtooth_schedule, szilard_run)

from _oracles import sigma_samples_by_rule


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
        "c12aa22078afca90e7557de6126fb98c478144dde5ba7f7008255129f967b670",
    ("start-interior-end", "metropolis"):
        "98afc5b90a4dceb8b545be5e9fd87534bfc85e898009d0b8f9b9eefdf3d8e4af",
    ("double-jump", "heat-bath"):
        "7cfd53cd34f02b9bf0825cafa94d5a869c6021bc0cc1edfda278d384daf47366",
    ("double-jump", "metropolis"):
        "389a0ac631ac755c256aef0ce65adc27b22c73f0ac35652e263934722a6e38fb",
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
        "e09992c03312cbf4a5db188f54b4352259514f916f511f1e916ec38dbefe1bb0",
    ("start-interior-end", "metropolis"):
        "6357612077708b7013261563d1a137420889853ee574e0b02f7285ca47b34b6d",
    ("double-jump", "heat-bath"):
        "b9e8436f8efe12c1122fbbafcf9d54770657cb64ab2b5915e768c832685dfa53",
    ("double-jump", "metropolis"):
        "a4f55e6161cfd7e6d744290a1cad1e5e853a1f855b6613d8b2230b1e2b837e44",
}


@pytest.mark.parametrize("name,rates", sorted(SIGMA_CASES))
def test_entropy_production_ledger(name, rates):
    res = entropy_production_samples(SCHEDULES[name], 200, seed=11, rates=rates)
    assert _sha(res.samples.tolist()) == SIGMA_CASES[name, rates]


@pytest.mark.parametrize("rates", ["heat-bath", "metropolis"])
@pytest.mark.parametrize("name", ["sawtooth", "double-jump"])
def test_entropy_production_follows_the_draw_rule(name, rates):
    schedule = sawtooth_schedule(4, 1.0, 2.0) if name == "sawtooth" else SCHEDULES[name]
    p0 = (0.7, 0.3)
    res = entropy_production_samples(schedule, 200, seed=11, p0=p0, rates=rates)
    expected = sigma_samples_by_rule(schedule, 200, 11, p0, rates)
    assert res.samples.tolist() == expected.tolist()


SZILARD_CASES = {
    (0.0, "heat-bath"):
        "daad1d0b4c1d25d4c1cbbf4b4513ea514438ef0d4fd6048c529b555fe28a8c2b",
    (3.0, "heat-bath"):
        "0c07bcd7a0d17cf2675e1bff27e13fefe5f11a6316bd47d6b887499feb7cc090",
    (3.0, "metropolis"):
        "52181f4178cdf0f6879100fc756b6ecc15270ec885e8024682c642354a27666d",
}


@pytest.mark.parametrize("ramp_time,rates", sorted(SZILARD_CASES))
def test_szilard_stroke_ledger(ramp_time, rates):
    ledger = szilard_run(2.0, ramp_time, 1.2, 0.15, gamma=0.9, rates=rates)
    fields = (ledger.work, ledger.heat, ledger.delta_u, ledger.segments)
    assert _sha(fields) == SZILARD_CASES[ramp_time, rates]
