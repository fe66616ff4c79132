"""Equality and hashing of the types that hold arrays.

A model's tables follow from its defining fields, so models compare and hash
by those; spin configurations compare and hash by value.  The other types
are equal only to themselves.  Either way ``==`` gives a bool and ``hash``
works.
"""

import numpy as np
import pytest

from memlab import (DensityMatrix, MemoryModel, QuantumChannel, SimulationParams,
                    SpinConfiguration, build_model, entropy_production_samples,
                    first_passage, integrate_master, memory_engine_cycle,
                    sawtooth_schedule)

# name: (make, a different value of the same type)
BY_VALUE = {
    "SpinConfiguration": (lambda: SpinConfiguration([1, -1, 1]),
                          lambda: SpinConfiguration([1, 1, 1])),
    "Ising1D model": (lambda: build_model("Ising1D", N=4),
                      lambda: build_model("Ising1D", N=4, J=-1.0)),
    "Kitaev2D model": (lambda: build_model("Kitaev2D", L=2),
                       lambda: build_model("Kitaev2D", L=2, move_rate=0.5)),
}

BY_IDENTITY = {
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
    "QuantumChannel": lambda: QuantumChannel([np.eye(2)]),
    "MasterSolution": lambda: integrate_master(sawtooth_schedule(1, 1.0, 2.0), (0.5, 0.5)),
    "LifetimeResult": lambda: first_passage(build_model("Ising1D", N=4),
                                            SimulationParams(1.0, 5.0, n_traj=3), seed=1),
    "EntropyProductionResult": lambda: entropy_production_samples(
        sawtooth_schedule(1, 1.0, 2.0), 3, seed=1),
    "CycleResult": lambda: memory_engine_cycle(MemoryModel(0.1), 5.0, 10.0, 1.0),
}


@pytest.mark.parametrize("make", [make for make, _ in BY_VALUE.values()]
                         + list(BY_IDENTITY.values()), ids=list(BY_VALUE) + list(BY_IDENTITY))
def test_equality_is_a_bool_and_hash_works(make):
    a, b = make(), make()
    assert (a == a) is True
    assert isinstance(a == b, bool)
    assert isinstance(hash(a), int) and hash(a) == hash(a)


@pytest.mark.parametrize("make,other", BY_VALUE.values(), ids=list(BY_VALUE))
def test_models_and_configurations_compare_by_value(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other()


@pytest.mark.parametrize("make", BY_IDENTITY.values(), ids=list(BY_IDENTITY))
def test_results_states_and_channels_are_equal_only_to_themselves(make):
    a, b = make(), make()
    assert a != b
    assert len({a, b, a}) == 2


def test_spins_compare_after_the_int8_cast():
    assert SpinConfiguration([1, -1]) == SpinConfiguration(np.array([1.0, -1.0]))
    assert hash(SpinConfiguration([1, -1])) == hash(SpinConfiguration(np.array([1.0, -1.0])))
    assert SpinConfiguration([1, -1]) != SpinConfiguration([1, -1, 1])


def test_spins_are_read_only_and_leave_the_input_writable():
    given = np.array([1, -1, 1], dtype=np.int8)
    c = SpinConfiguration(given)
    seen = {c}
    with pytest.raises(ValueError, match="read-only"):
        c.spins[0] = -1
    assert c in seen
    given[0] = -1  # the configuration holds its own copy
    assert given.flags.writeable and c.spins.tolist() == [1, -1, 1]
