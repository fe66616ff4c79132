"""One number rule at every library boundary: ``_shared.check_real`` and
``_shared.check_count``.

Each number argument rejects a bool, a numeric string, NaN, an int beyond
float range, a value outside its bounds and, unless the argument allows it,
inf -- with a ValueError whose message starts with the argument's name.
"""

import math
import re

import numpy as np
import pytest

from memlab.decoder import Correction, decode_matching, is_logical_failure
from memlab.dynamics import (SimulationParams, classify_flip, kitaev_memory_lifetime,
                             simulate_trajectory)
from memlab.exact import (Jump, ProtocolSchedule, Segment, StarBlocks, build_generator,
                          integrate_master)
from memlab.lattice import (LogicalOperator, SpinConfiguration, Syndrome, block_flip_delta,
                            build_model, energy, logical_bare, logical_operator, syndrome)
from memlab.qtoolkit import (DensityMatrix, depolarizing_channel, fannes_allowance,
                             fannes_check, random_channel, random_density,
                             repetition_code_channels, toolkit_sweep)
from memlab.thermo import (MemoryModel, cycle_zero_crossing, memory_engine_cycle,
                           sawtooth_schedule, szilard_run)

RING = build_model("Ising1D", N=4)
SEG = Segment(0.0, 1.0, (0.0, 0.0), (0.0, 1.0))
_MIXED = DensityMatrix(np.eye(2, dtype=complex) / 2)

# (entry point, argument, call with the argument set to v, out-of-range values,
#  inf allowed)
_REALS = [
    ("SimulationParams", "beta", lambda v: SimulationParams(v, 1.0), [-0.5], False),
    ("SimulationParams", "t_max", lambda v: SimulationParams(1.0, v), [0.0, -1.0], True),
    ("SimulationParams", "probe_cadence",
     lambda v: SimulationParams(1.0, 1.0, probe_cadence=v), [0.0, -1.0], False),
    ("classify_flip", "beta",
     lambda v: classify_flip(RING, SpinConfiguration.all_up(4), 0, v), [-0.5], False),
    ("build_model", "J", lambda v: build_model("Ising1D", N=4, J=v), [], False),
    ("build_model", "move_rate",
     lambda v: build_model("Kitaev2D", L=2, move_rate=v), [-1.0], False),
    ("build_generator", "beta", lambda v: build_generator(RING, v), [-1.0], False),
    ("StarBlocks", "beta", lambda v: StarBlocks(build_model("Kitaev2D", L=2), v),
     [-1.0], False),
    ("ProtocolSchedule", "gamma", lambda v: ProtocolSchedule((SEG,), gamma=v),
     [0.0, -1.0], False),
    ("ProtocolSchedule", "beta", lambda v: ProtocolSchedule((SEG,), beta=v),
     [0.0, -1.0], False),
    ("MemoryModel", "error_probability", MemoryModel, [-0.1, 1.5], False),
    ("MemoryModel.from_lifetime", "t_cycle",
     lambda v: MemoryModel.from_lifetime(v, 1.0), [-1.0], True),
    ("MemoryModel.from_lifetime", "tau",
     lambda v: MemoryModel.from_lifetime(1.0, v), [0.0, -2.0], True),
    ("szilard_run", "E_max", lambda v: szilard_run(v, 1.0, 1.0, 0.0), [0.0, -5.0], False),
    ("szilard_run", "ramp_time", lambda v: szilard_run(5.0, v, 1.0, 0.0), [-1.0], False),
    ("szilard_run", "p_init", lambda v: szilard_run(5.0, 1.0, 1.0, v), [-0.1, 1.5], False),
    ("memory_engine_cycle", "beta",  # an unstable register divides by beta
     lambda v: memory_engine_cycle(MemoryModel(0.1, stable=False), 5.0, 1.0, v),
     [0.0, -1.0], False),
    ("cycle_zero_crossing", "tol",
     lambda v: cycle_zero_crossing(5.0, 150.0, 1.0, tol=v), [0.0, -1e-4], False),
    ("cycle_zero_crossing", "lo",
     lambda v: cycle_zero_crossing(5.0, 150.0, 1.0, lo=v), [0.5, 0.7], False),
    ("cycle_zero_crossing", "hi",
     lambda v: cycle_zero_crossing(5.0, 150.0, 1.0, hi=v), [], False),
    ("sawtooth_schedule", "period", lambda v: sawtooth_schedule(2, v, 1.0),
     [0.0, -1.0], False),
    ("sawtooth_schedule", "e_max", lambda v: sawtooth_schedule(2, 1.0, v), [], False),
]

BIG = 10**400  # an int beyond float range
_BAD = [True, np.bool_(False), "1", math.nan, -math.inf, BIG]


def _cases():
    for entry, name, call, out_of_range, inf_ok in _REALS:
        values = _BAD + out_of_range + ([] if inf_ok else [math.inf])
        for value in values:
            label = "10**400" if value is BIG else repr(value)
            yield pytest.param(name, call, value, id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("name,call,value", _cases())
def test_bad_real_raises_naming_its_argument(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(value)


@pytest.mark.parametrize("kind,name,least", [
    ("Ising1D", "N", 2), ("IsingMeanField", "N", 1), ("Ising2D", "L", 2),
    ("Kitaev2D", "L", 2)])
@pytest.mark.parametrize("value", [True, np.bool_(True), "3", 3.0, math.nan, None, -1])
def test_bad_size_raises_naming_its_argument(kind, name, least, value):
    value = least - 1 if value == -1 else value  # -1 stands for one below the least
    with pytest.raises(ValueError, match=f"^{kind} size {name} must be an integer of "
                                         f"at least {least}"):
        build_model(kind, **{name: value})


def test_infinity_numpy_scalars_and_plain_ints_are_accepted():
    assert SimulationParams(np.float64(0.5), math.inf).t_max == math.inf
    assert SimulationParams(0, 5, n_traj=np.int64(3)).n_traj == 3
    assert MemoryModel.from_lifetime(3, math.inf).error_probability == 0.0
    assert MemoryModel.from_lifetime(np.float64(1.0), np.int64(2)).error_probability == \
        MemoryModel.from_lifetime(1.0, 2.0).error_probability
    model = build_model("Ising1D", N=np.int64(4), J=np.int64(2), move_rate=0)
    assert (model.N, model.J) == (4, 2.0) and type(model.J) is float
    assert build_generator(RING, 0).beta == 0.0  # beta = 0 is the infinite temperature
    assert (build_generator(RING, np.float64(0.7)).matrix
            != build_generator(RING, 0.7).matrix).nnz == 0
    a, b = szilard_run(5, 1, np.int64(1), 0), szilard_run(5.0, 1.0, 1.0, 0.0)
    assert (a.work, a.heat, a.delta_u, a.segments) == (b.work, b.heat, b.delta_u, b.segments)
    assert sawtooth_schedule(np.int64(2), 1, np.float64(2.0)) == sawtooth_schedule(2, 1.0, 2.0)
    assert cycle_zero_crossing(5, 150, 1, lo=0, hi=np.float64(0.5), tol=1e-3) == \
        cycle_zero_crossing(5.0, 150.0, 1.0, tol=1e-3)
    assert StarBlocks(build_model("Kitaev2D", L=2), 1).beta == 1.0


_SITE_CASES = [True, np.bool_(False), 1.5, "1", None, math.nan, -1]


@pytest.mark.parametrize("value", _SITE_CASES, ids=repr)
def test_classify_flip_site_is_a_count(value):
    with pytest.raises(ValueError, match="^site must be an integer of at least 0"):
        classify_flip(RING, SpinConfiguration.all_up(4), value, 1.0)


def test_classify_flip_takes_a_numpy_site_and_names_an_index_out_of_range():
    up = SpinConfiguration.all_up(4)
    assert classify_flip(RING, up, np.int64(3), 1.0) == classify_flip(RING, up, 3, 1.0)
    with pytest.raises(ValueError, match="^invalid site index: 4"):
        classify_flip(RING, up, 4, 1.0)


_STARS = StarBlocks(build_model("Kitaev2D", L=2), 1.0)


# 1 is odd, so no character; 16 and 48 (even) lie beyond the 4 stars of L = 2
@pytest.mark.parametrize("value", [1, 16, 48, -1, True, 3.0, "3"], ids=repr)
def test_star_block_character_is_an_even_bitmask(value):
    with pytest.raises(ValueError, match=f"^chi must be .*got {re.escape(repr(value))}$"):
        _STARS.block(value)


def test_star_block_takes_a_numpy_integer():
    assert (_STARS.block(np.uint8(15)) != _STARS.block(15)).nnz == 0


# schedule times and energies: checked where the schedule is built, since the
# sampler copies them into float arrays
_STEP_CASES = {
    "energy-10**400": (lambda: ProtocolSchedule((Segment(0.0, 1.0, (0.0, BIG), (0.0, 1.0)),)),
                       r"segments\[0\] time or energy"),
    "energy-True": (lambda: ProtocolSchedule((Segment(0.0, 1.0, (True, 0.0), (0.0, 1.0)),)),
                    r"segments\[0\] time or energy"),
    "jump-energy-10**400": (lambda: ProtocolSchedule(
        (SEG,), jumps=(Jump(1.0, (0.0, 0.0), (1.0, BIG)),)), r"jumps\[0\] time or energy"),
    "jump-time-string": (lambda: ProtocolSchedule(
        (SEG,), jumps=(Jump("1", (0.0, 0.0), (1.0, 1.0)),)), r"jumps\[0\] time or energy"),
    "segment-t1-string": (lambda: Segment(0.0, "1", (0.0, 0.0), (0.0, 1.0)), "t1"),
    "segment-t0-bool": (lambda: Segment(False, 1.0, (0.0, 0.0), (0.0, 1.0)), "t0"),
}


@pytest.mark.parametrize("case", sorted(_STEP_CASES))
def test_schedule_times_and_energies_follow_the_number_rule(case):
    call, name = _STEP_CASES[case]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_schedule_takes_plain_ints_and_numpy_reals():
    ints = ProtocolSchedule((Segment(0, 1, (0, 0), (0, 2)),), jumps=(Jump(1, (0, 1), (2, 3)),))
    floats = ProtocolSchedule((Segment(np.float64(0.0), 1.0, (0.0, 0.0), (0.0, np.int64(2))),),
                              jumps=(Jump(1.0, (0.0, 1.0), (2.0, 3.0)),))
    assert ints == floats


_RNG = np.random.default_rng(0)
_TOOLKIT_CASES = [
    ("fannes_allowance", "eps", lambda v: fannes_allowance(v, 2),
     [True, math.nan, math.inf, "0.1", BIG, -0.1]),
    ("fannes_allowance", "dim", lambda v: fannes_allowance(0.1, v), [True, 2.0, 0, "2"]),
    ("fannes_check", "dim", lambda v: fannes_check(_MIXED, _MIXED, v), [True, 2.0, 0]),
    ("random_density", "dim", lambda v: random_density(v, _RNG), [True, 2.0, 0, None]),
    ("random_density", "rank", lambda v: random_density(2, _RNG, rank=v), [True, 1.5, 0]),
    ("random_channel", "dim", lambda v: random_channel(v, 2, _RNG), [True, 2.0, 0]),
    ("random_channel", "n_kraus", lambda v: random_channel(2, v, _RNG), [True, 2.0, 0]),
    ("depolarizing_channel", "dim", depolarizing_channel, [True, 2.0, 0]),
    ("repetition_code_channels", "p_flip", repetition_code_channels,
     [True, "0.1", math.nan, BIG]),
    ("toolkit_sweep", "n", lambda v: toolkit_sweep(v, _RNG), [True, 2.0, -1, "2"]),
]


def _toolkit_cases():
    for entry, name, call, values in _TOOLKIT_CASES:
        for value in values:
            label = "10**400" if value is BIG else repr(value)
            yield pytest.param(name, call, value, id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("name,call,value", _toolkit_cases())
def test_toolkit_numbers_follow_the_number_rule(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(value)


def test_toolkit_takes_numpy_numbers_and_an_empty_sweep():
    assert fannes_allowance(np.float64(0.1), np.int64(2)) == fannes_allowance(0.1, 2)
    assert fannes_allowance(0, 3) == 0.0
    assert random_density(np.int64(3), np.random.default_rng(1), rank=np.int64(2)).dim == 3
    assert toolkit_sweep(0, np.random.default_rng(1)).min_fannes_slack == math.inf


# index sets, direction indices, block lengths and p0 entries: none may be
# truncated by int(), compared by == or converted by numpy on the way in
KIT = build_model("Kitaev2D", L=3)
_Z1 = logical_operator(KIT, 1)
_SAW = sawtooth_schedule(2, 1.0, 2.0)
_MEAN_FIELD = build_model("IsingMeanField", N=6)
_INDEX_CASES = [
    ("Syndrome", "anyons", lambda v: Syndrome({v, 2}, "plaquette"), [1.5, True, "1", -1]),
    ("Correction", "edges", lambda v: Correction([v], 3), [1.9, True, "1", -1]),
    ("Correction", "L", lambda v: Correction([], v), [2.5, True, 1]),
    ("decode_matching", "L", lambda v: decode_matching(Syndrome({0, 1}, "plaquette"), v),
     [2.5, True, 1]),
    ("LogicalOperator", "support", lambda v: LogicalOperator(1, "Z-type", [v]),
     [0.5, True, -1]),
    ("LogicalOperator", "mu", lambda v: LogicalOperator(v, "Z-type", [0]), [True, 1.0]),
    ("syndrome", "error", lambda v: syndrome(KIT, [v]), [0.7, True, "1", None]),
    ("energy", "config", lambda v: energy(KIT, [v]), [0.7, True]),
    ("logical_bare", "error", lambda v: logical_bare(KIT, [v], _Z1), [0.7, True]),
    ("is_logical_failure", "error",
     lambda v: is_logical_failure([v], Correction([], 3), _Z1), [0.7, True]),
    ("simulate_trajectory", "initial",
     lambda v: simulate_trajectory(KIT, SimulationParams(1.0, 1.0), initial=[v]),
     [0.5, True]),
    ("classify_flip", "state", lambda v: classify_flip(KIT, [v], 2, 1.0), [0.5, True]),
    ("logical_operator", "mu", lambda v: logical_operator(KIT, v), [True, 2.0]),
    ("kitaev_memory_lifetime", "mu",
     lambda v: kitaev_memory_lifetime(3, SimulationParams(1.0, 1.0), mu=v), [True, 2.0]),
    ("block_flip_delta", "k", lambda v: block_flip_delta(_MEAN_FIELD, v), [1.5, True, "2"]),
    ("integrate_master", "p0", lambda v: integrate_master(_SAW, (v, 0.5)), ["0.5"]),
    ("integrate_master", "p0", lambda v: integrate_master(_SAW, (1.0 - v, v)),
     [True, -1e-13, 1.0 + 1e-13]),
]


def _index_cases():
    for entry, name, call, values in _INDEX_CASES:
        for value in values:
            yield pytest.param(name, call, value, id=f"{entry}-{name}-{value!r}")


@pytest.mark.parametrize("name,call,value", _index_cases())
def test_indices_and_p0_follow_the_number_rule(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(value)


def test_integer_indices_keep_their_range_messages():
    for edges in ([-1], [18], np.array([18])):
        with pytest.raises(ValueError, match="^invalid edge index"):
            syndrome(KIT, edges)
    with pytest.raises(ValueError, match="^block length k=6 out of range"):
        block_flip_delta(_MEAN_FIELD, np.int64(6))
    with pytest.raises(ValueError, match="^mu must be 1 or 2"):
        logical_operator(KIT, 3)
    with pytest.raises(ValueError, match="^p0 must be a finite 2-state probability vector"):
        integrate_master(_SAW, (0.5, 0.6))
    with pytest.raises(ValueError, match="^p0 must be a finite 2-state probability vector"):
        integrate_master(_SAW, (0.5, 0.25, 0.25))


def test_numpy_indices_and_p0_are_accepted():
    assert syndrome(KIT, np.array([0, 4])) == syndrome(KIT, [0, 4])
    assert Correction(np.array([3, 1]), 3).edges == {1, 3}
    assert block_flip_delta(_MEAN_FIELD, np.int64(2)) == block_flip_delta(_MEAN_FIELD, 2)
    assert logical_operator(KIT, np.int64(2)) == logical_operator(KIT, 2)
    assert (integrate_master(_SAW, np.array([0.7, 0.3])).p_final.tolist()
            == integrate_master(_SAW, (0.7, 0.3)).p_final.tolist())
    assert integrate_master(_SAW, (1, 0)).work == integrate_master(_SAW, (1.0, 0.0)).work
