"""Work and heat bookkeeping for driven two-level protocols.

Builds on the master-equation solve of ``exact.integrate_master``: the
Szilard-style extraction ramp, an engine cycle powered by a read-out memory
register, and trajectory entropy-production statistics for the fluctuation
relation.  Trajectories walk the same ``ProtocolSchedule.steps`` as the
master solve and read ``Segment.energies`` and ``two_level_rates``, so both
see identical drives.  A trajectory's randomness is its tape from
``_shared.run_chunks``, read by the rule in the ``_shared`` docstring.

Sign convention: ``work_on_system`` is positive when energy flows into the
system; extracted work is its negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._shared import check_count, heat_bath, run_chunks
from .exact import (Jump, MasterSolution, ProtocolSchedule, Segment,
                    integrate_master, two_level_rates)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class WorkLedger:
    """Time-resolved energy accounting of one driven protocol.

    Attributes:
        work_on_system: total work done on the system (k_B T units are 1/beta).
        heat_into_system: total heat absorbed from the bath.
        internal_energy_change: U(end) - U(start).
        segments: per-interval SegmentRecord breakdown (jumps included).
        beta: inverse temperature, recording the k_B T = 1/beta unit scale.
    """

    work_on_system: float
    heat_into_system: float
    internal_energy_change: float
    segments: tuple
    beta: float

    @property
    def extracted_work(self) -> float:
        return -self.work_on_system

    def first_law_residual(self) -> float:
        """Relative size of dU - W - Q, over the whole run and per segment.

        Zero up to quadrature rounding; the ledger invariant.
        """
        def rel(du, w, q):
            return abs(du - w - q) / max(abs(du), abs(w), abs(q), 1.0)

        worst = rel(self.internal_energy_change, self.work_on_system,
                    self.heat_into_system)
        for seg in self.segments:
            worst = max(worst, rel(seg.delta_u, seg.work, seg.heat))
        return worst

    @classmethod
    def from_solution(cls, sol: MasterSolution, beta: float) -> "WorkLedger":
        return cls(sol.work, sol.heat, sol.delta_u, sol.segments, beta)


@dataclass(frozen=True)
class MemoryModel:
    """Read-out register feeding the engine cycle.

    ``error_probability`` is the chance the recorded state is wrong by swap
    time.  A register derived from a finite memory lifetime tau relaxes
    toward the fully mixed value 1/2 and never beyond it.  ``stable`` chooses
    the measurement-cost mode: a stable register is read out work-free, an
    unstable (relaxing) one is charged k_B T ln 2 per readout.
    """

    error_probability: float
    source: str = "ideal"
    stable: bool = True

    def __post_init__(self):
        if self.source not in ("ideal", "derived-from-lifetime"):
            raise ValueError(f"unknown memory source: {self.source!r}")
        p = self.error_probability
        if not 0.0 <= p <= 1.0:
            raise ValueError("error_probability must be in [0, 1]")
        if self.source == "derived-from-lifetime" and p > 0.5 + 1e-12:
            raise ValueError("lifetime-derived error probability cannot exceed 1/2")

    @classmethod
    def from_lifetime(cls, t_cycle: float, tau: float, stable: bool = True) -> "MemoryModel":
        """p(t_cycle, tau) = (1 - e^(-2 t_cycle / tau)) / 2."""
        if t_cycle < 0 or tau <= 0:
            raise ValueError("need t_cycle >= 0 and tau > 0")
        p = 0.5 * (1.0 - math.exp(-2.0 * t_cycle / tau))
        return cls(p, "derived-from-lifetime", stable)


def szilard_run(E_max: float, ramp_time: float, beta: float, p_init: float,
                gamma: float = 1.0, rates: str = "heat-bath") -> WorkLedger:
    """One extraction stroke: sudden raise of the believed-empty level, slow return.

    The upper level is quenched from 0 to ``E_max`` while decoupled (work
    p_init * E_max falls on the erroneously occupied fraction), then the bath
    is coupled and the level ramps linearly back to 0 over ``ramp_time``,
    extracting work as it re-populates.  ``ramp_time = 0`` degenerates to a
    pair of back-to-back quenches with zero net work.

    Returns the WorkLedger; the quasi-static limit extracts
    (ln 2 - ln(1 + e^(-beta E_max))) / beta.
    """
    if not (math.isfinite(E_max) and E_max > 0):
        raise ValueError(f"E_max must be finite and positive, got {E_max!r}")
    if not (math.isfinite(ramp_time) and ramp_time >= 0):
        raise ValueError(f"ramp_time must be finite and nonnegative, got {ramp_time!r}")
    if not 0.0 <= p_init <= 1.0:
        raise ValueError("p_init must be a probability")
    raise_jump = Jump(0.0, eps0=(0.0, 0.0), eps1=(0.0, E_max))
    if ramp_time > 0:
        schedule = ProtocolSchedule(
            segments=(Segment(0.0, ramp_time, eps0=(0.0, 0.0), eps1=(E_max, 0.0)),),
            jumps=(raise_jump,), gamma=gamma, beta=beta)
    else:
        lower_jump = Jump(0.0, eps0=(0.0, 0.0), eps1=(E_max, 0.0))
        schedule = ProtocolSchedule(
            segments=(Segment(0.0, 1.0, eps0=(0.0, 0.0), eps1=(0.0, 0.0),
                              coupled=False),),
            jumps=(raise_jump, lower_jump), gamma=gamma, beta=beta)
    sol = integrate_master(schedule, (1.0 - p_init, p_init), rates=rates)
    return WorkLedger.from_solution(sol, beta)


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one memory-powered engine cycle."""

    net_extracted: float
    violation: bool
    measurement_cost: float
    ledger: WorkLedger
    memory: MemoryModel


def memory_engine_cycle(mem: MemoryModel, E_max: float, ramp_time: float,
                        beta: float, gamma: float = 1.0,
                        rates: str = "heat-bath") -> CycleResult:
    """Measurement + swap + extraction stroke, with the cycle's net work.

    The register is read out (work-free when stable, k_B T ln 2 otherwise),
    its state is swapped into the engine while both engine levels sit at zero
    energy (the unique work-free point for the exchange), and the extraction
    stroke runs with occupancy error ``mem.error_probability``.  Closing the
    cycle — re-equilibrating the engine at degenerate levels — moves heat but
    no work.  A positive net marks a Second-Law-violating ledger.
    """
    measurement_cost = 0.0 if mem.stable else LN2 / beta
    ledger = szilard_run(E_max, ramp_time, beta, mem.error_probability,
                         gamma=gamma, rates=rates)
    net = ledger.extracted_work - measurement_cost
    return CycleResult(net, net > 0.0, measurement_cost, ledger, mem)


def cycle_zero_crossing(E_max: float, ramp_time: float, beta: float,
                        gamma: float = 1.0, lo: float = 0.0, hi: float = 0.5,
                        tol: float = 1e-4) -> float:
    """Bisect the occupancy error p* where the cycle's net work changes sign.

    Requires finite lo < hi, a sign change of net(p) over [lo, hi] and a
    finite tol > 0; stops early once lo and hi are adjacent floats.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got lo={lo!r}, hi={hi!r}")

    def net(p):
        return memory_engine_cycle(MemoryModel(p), E_max, ramp_time, beta,
                                   gamma=gamma).net_extracted

    f_lo, f_hi = net(lo), net(hi)
    if f_lo * f_hi > 0:
        raise ValueError("net work does not change sign over [lo, hi]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f_lo * net(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# trajectory entropy production


def sawtooth_schedule(n_periods: int, period: float, e_max: float,
                      gamma: float = 1.0, beta: float = 1.0) -> ProtocolSchedule:
    """Repeated triangular drive of the upper level between 0 and e_max.

    Doubling ``n_periods`` doubles the protocol duration at fixed ramp shape.
    """
    check_count("n_periods", n_periods)
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and positive, got {period!r}")
    half = period / 2.0
    segs = []
    for k in range(n_periods):
        t0 = k * period
        segs.append(Segment(t0, t0 + half, eps0=(0.0, 0.0), eps1=(0.0, e_max)))
        segs.append(Segment(t0 + half, t0 + period, eps0=(0.0, 0.0), eps1=(e_max, 0.0)))
    return ProtocolSchedule(tuple(segs), gamma=gamma, beta=beta)


def _sigma_one(schedule: ProtocolSchedule, p_init, p_fin, rates, tape) -> float:
    """One sample of sigma, read from ``tape`` by the rule in ``_shared``."""
    gamma, beta = schedule.gamma, schedule.beta
    x = 0 if next(tape)[1] < p_init[0] else 1
    sigma = math.log(p_init[x])
    for step in schedule.steps:
        if not step.coupled:
            continue  # jumps and decoupled segments freeze the state
        t = step.t0
        # thinning: both directional rates are bounded by gamma in either
        # rate convention, so propose at gamma and accept proportionally
        while True:
            e, u1, _ = next(tape)
            t += e / gamma
            if t >= step.t1:
                break
            e0, e1 = step.energies(t)
            up, down = two_level_rates(e1 - e0, gamma, beta, rates)
            fwd = up if x == 0 else down
            if u1 * gamma < fwd:
                bwd = down if x == 0 else up
                if bwd <= 0.0:
                    raise ValueError("zero backward rate: schedule is "
                                     "irreversible by construction")
                sigma += math.log(fwd / bwd)
                x = 1 - x
    sigma -= math.log(p_fin[x])
    return sigma


@dataclass(frozen=True)
class EntropyProductionResult:
    """Per-trajectory entropy production samples and their summary."""

    samples: np.ndarray
    mean_sigma: float
    mean_stderr: float
    ift_estimate: float      # <exp(-sigma)>, equal to 1 in expectation
    ift_stderr: float
    p_negative: float
    n_traj: int


def entropy_production_samples(schedule: ProtocolSchedule, n_traj: int,
                               seed: int = 0, p0=None, rates: str = "heat-bath",
                               workers: int = 1) -> EntropyProductionResult:
    """Sample trajectory entropy production of the driven two-level system.

    Each jump trajectory accumulates ln(rate_forward / rate_backward) at its
    flips plus the boundary term ln p_init(x_0) - ln p_fin(x_T), with p_fin
    taken from the master equation for the same protocol.  Defaults to an
    equilibrium start at the pre-protocol energies.

    Returns samples plus the integral-fluctuation-theorem estimate
    <exp(-sigma)> and the empirical P(sigma < 0).
    """
    check_count("n_traj", n_traj)
    if p0 is None:
        e0, e1 = schedule.start_energies
        p1 = heat_bath(schedule.beta * (e1 - e0))
        p0 = (1.0 - p1, p1)
    p0 = tuple(float(v) for v in p0)
    p_fin = tuple(integrate_master(schedule, p0, rates=rates).p_final)
    samples = np.asarray(run_chunks(_sigma_one, (schedule, p0, p_fin, rates), seed,
                                    n_traj, workers))
    ift = np.exp(-samples)
    n = len(samples)
    return EntropyProductionResult(
        samples=samples,
        mean_sigma=float(samples.mean()),
        mean_stderr=float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        ift_estimate=float(ift.mean()),
        ift_stderr=float(ift.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        p_negative=float(np.mean(samples < 0.0)),
        n_traj=n,
    )
