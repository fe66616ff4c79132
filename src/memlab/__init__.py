"""memlab: thermal stability of classical and quantum memories, on a desk.

Kinetic Monte Carlo for Ising bits and the 2D toric code, exact generator
spectra for small systems, driven two-level work/heat ledgers, and small
density-matrix numerics.
"""

__version__ = "0.1.0"

from .decoder import (Correction, crossing_sign, decode_matching,
                      dressed_logical, is_logical_failure)
from .dynamics import (EventClass, LifetimeResult, SimulationParams,
                       TrajectoryRecord, classify_flip, first_passage,
                       kitaev_memory_lifetime, magnetization_nonpositive,
                       simulate_trajectory)
from .exact import (GeneratorMatrix, Jump, MasterSolution, ProtocolSchedule,
                    Segment, SegmentRecord, build_generator, integrate_master,
                    spectral_gap, stationary_distribution, two_level_rates)
from .lattice import (LatticeModel, LogicalOperator, SpinConfiguration,
                      Syndrome, block_flip_delta, build_model, energy,
                      logical_bare, logical_operator, syndrome)
from .qtoolkit import (ContractionReport, DensityMatrix, ErasureBalance,
                       IsometryReport, QuantumChannel, ToolkitSweep,
                       apply_channel, correctable_isometry_check,
                       depolarizing_channel, entropy, erasure_balance,
                       fannes_allowance, fannes_check, random_channel,
                       random_density, repetition_code_channels,
                       toolkit_sweep, trace_distance)
from .thermo import (CycleResult, EntropyProductionResult, MemoryModel,
                     cycle_zero_crossing, entropy_production_samples,
                     memory_engine_cycle, sawtooth_schedule, szilard_run)

__all__ = [
    "__version__",
    # lattice
    "LatticeModel", "SpinConfiguration", "Syndrome", "LogicalOperator",
    "build_model", "syndrome", "energy", "block_flip_delta",
    "logical_operator", "logical_bare",
    # dynamics
    "SimulationParams", "EventClass", "TrajectoryRecord", "LifetimeResult",
    "classify_flip", "simulate_trajectory", "first_passage",
    "kitaev_memory_lifetime", "magnetization_nonpositive",
    # decoder
    "Correction", "decode_matching", "crossing_sign", "dressed_logical",
    "is_logical_failure",
    # exact
    "GeneratorMatrix", "build_generator", "stationary_distribution",
    "spectral_gap", "Segment", "Jump", "ProtocolSchedule", "SegmentRecord",
    "MasterSolution", "integrate_master", "two_level_rates",
    # thermo
    "MemoryModel", "CycleResult", "szilard_run", "memory_engine_cycle",
    "cycle_zero_crossing", "sawtooth_schedule", "entropy_production_samples",
    "EntropyProductionResult",
    # qtoolkit
    "DensityMatrix", "QuantumChannel", "ContractionReport", "IsometryReport",
    "ErasureBalance", "entropy", "trace_distance", "apply_channel",
    "correctable_isometry_check", "fannes_check", "fannes_allowance",
    "erasure_balance", "random_density", "random_channel",
    "depolarizing_channel", "repetition_code_channels", "ToolkitSweep",
    "toolkit_sweep",
]
