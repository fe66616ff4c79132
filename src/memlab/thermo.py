"""Work and heat bookkeeping for driven two-level protocols.

Builds on the master-equation solve of ``exact.integrate_master``: the
Szilard-style extraction ramp, an engine cycle powered by a read-out memory
register, and trajectory entropy-production statistics for the fluctuation
relation.  Trajectories walk the same ``ProtocolSchedule.steps`` as the
master solve, with the float operations of ``Segment.energies`` and the rate
law of ``two_level_rates``, so both see identical drives.  A trajectory's
randomness is its tape, the ``numpy.random.Generator`` that
``_shared.run_chunks`` hands it, read by the rule in the ``_shared``
docstring.  The sampler steps each list of up to ``_shared._ROWS`` tapes in
lockstep, a block of each at a time, and each sample equals the one that rule
gives when a trajectory is run alone, by ``==``.

The ledger is the master solve's ``MasterSolution``: ``work`` is positive
when energy flows into the system, and ``extracted_work`` is its negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._shared import BLOCK, blocks, check_count, check_real, heat_bath, run_chunks
from .exact import (Jump, MasterSolution, ProtocolSchedule, Segment, _rates_from,
                    integrate_master)

LN2 = math.log(2.0)


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
        p = check_real("error_probability", self.error_probability, least=0, most=1)
        if self.source == "derived-from-lifetime" and p > 0.5 + 1e-12:
            raise ValueError("lifetime-derived error probability cannot exceed 1/2")

    @classmethod
    def from_lifetime(cls, t_cycle: float, tau: float, stable: bool = True) -> "MemoryModel":
        """p(t_cycle, tau) = (1 - e^(-2 t_cycle / tau)) / 2; ``tau = inf`` gives 0
        for a finite ``t_cycle``."""
        t_cycle = check_real("t_cycle", t_cycle, least=0, inf=True)
        tau = check_real("tau", tau, above=0, inf=True)
        if t_cycle == tau == math.inf:
            raise ValueError("t_cycle and tau cannot both be inf: 2 t_cycle / tau is undefined")
        p = 0.5 * (1.0 - math.exp(-2.0 * t_cycle / tau))
        return cls(p, "derived-from-lifetime", stable)


def szilard_run(E_max: float, ramp_time: float, beta: float, p_init: float,
                gamma: float = 1.0, rates: str = "heat-bath") -> MasterSolution:
    """One extraction stroke: sudden raise of the believed-empty level, slow return.

    The upper level is quenched from 0 to ``E_max`` while decoupled (work
    p_init * E_max falls on the erroneously occupied fraction), then the bath
    is coupled and the level ramps linearly back to 0 over ``ramp_time``,
    extracting work as it re-populates.  ``ramp_time = 0`` degenerates to a
    pair of back-to-back quenches with zero net work.

    Returns the master solve's MasterSolution; the quasi-static limit extracts
    (ln 2 - ln(1 + e^(-beta E_max))) / beta.
    """
    E_max = check_real("E_max", E_max, above=0)
    ramp_time = check_real("ramp_time", ramp_time, least=0)
    p_init = check_real("p_init", p_init, least=0, most=1)
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
    return integrate_master(schedule, (1.0 - p_init, p_init), rates=rates)


@dataclass(frozen=True, eq=False)
class CycleResult:
    """Outcome of one memory-powered engine cycle; equality is identity."""

    net_extracted: float
    violation: bool
    measurement_cost: float
    ledger: MasterSolution
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
    ledger = szilard_run(E_max, ramp_time, beta, mem.error_probability,
                         gamma=gamma, rates=rates)  # checks beta before LN2 / beta
    measurement_cost = 0.0 if mem.stable else LN2 / beta
    net = ledger.extracted_work - measurement_cost
    return CycleResult(net, net > 0.0, measurement_cost, ledger, mem)


def cycle_zero_crossing(E_max: float, ramp_time: float, beta: float,
                        gamma: float = 1.0, lo: float = 0.0, hi: float = 0.5,
                        tol: float = 1e-4) -> float:
    """Bisect the occupancy error p* where the cycle's net work changes sign.

    Requires finite lo < hi, a sign change of net(p) over [lo, hi] and a
    finite tol > 0; stops early once lo and hi are adjacent floats.
    """
    tol = check_real("tol", tol, above=0)
    lo, hi = check_real("lo", lo), check_real("hi", hi)
    if not lo < hi:
        raise ValueError(f"lo must be below hi, got lo={lo!r}, hi={hi!r}")

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
    n_periods = check_count("n_periods", n_periods)
    period = check_real("period", period, above=0)
    e_max = check_real("e_max", e_max)
    half = period / 2.0
    segs = []
    for k in range(n_periods):
        t0 = k * period
        segs.append(Segment(t0, t0 + half, eps0=(0.0, 0.0), eps1=(0.0, e_max)))
        segs.append(Segment(t0 + half, t0 + period, eps0=(0.0, 0.0), eps1=(e_max, 0.0)))
    return ProtocolSchedule(tuple(segs), gamma=gamma, beta=beta)


def _sigma_lockstep(schedule: ProtocolSchedule, p_init, p_fin, rates, tapes) -> list:
    """One sample of sigma per tape, read by the rule in ``_shared``.

    Every trajectory reads one triple per round, so all rows read the same
    column of their current tape blocks.  A block is taken in two passes over
    its columns: the clock (t += e / gamma, then the end of the step or a
    proposal), which does not depend on the state, and then the state, whose
    accept tests were computed for both states at every proposal at once.
    The clock, energies, rates and accept tests are the float operations of
    the one-trajectory rule in the same order (``Segment.energies``, the rate
    law of ``two_level_rates`` with ``math.exp``), and each row adds its
    ``math.log`` flip terms in time order, so every sample equals the rule's
    by ``==``.
    """
    gamma, beta = schedule.gamma, schedule.beta
    coupled = [s for s in schedule.steps if s.coupled]  # the others freeze the state
    m = len(coupled)
    # per coupled step, then a sentinel that never ends: start, end, start
    # energies and slopes
    t0s, t1s, a0s, a1s, s0s, s1s = np.array(
        [(s.t0, s.t1, s.eps0[0], s.eps1[0], *s.slopes) for s in coupled]
        + [(0.0, math.inf, 0.0, 0.0, 0.0, 0.0)]).T
    out = [0.0] * len(tapes)
    live = np.arange(len(tapes))  # the sample index of each live row
    j = np.zeros(live.size, dtype=np.intp)  # each row's coupled step
    t = np.full(live.size, t0s[0])
    first = 1  # column 0 of the first block decides the initial state
    while live.size:
        waits, u1s = blocks([tapes[i] for i in live.tolist()])
        waits /= gamma
        if first:
            x = ~(u1s[:, 0] < p_init[0])
            sigma = np.array([math.log(p_init[v]) for v in x.tolist()])
        # the clock: the time and step of every triple, and whether it proposes.
        # Thinning: both directional rates are bounded by gamma in either rate
        # convention, so proposals come at gamma and are accepted proportionally
        ts, js = np.zeros_like(waits), np.zeros(waits.shape, dtype=np.intp)
        go = np.zeros(waits.shape, dtype=bool)
        for k in range(first, BLOCK):
            t = t + waits[:, k]
            ts[:, k], js[:, k] = t, j
            end = t >= t1s[j]
            go[:, k] = ~end
            j += end
            t = np.where(end, t0s[j], t)
        go &= js < m
        # every proposal's rates, and its accept test from either state
        p = np.flatnonzero(go)  # flat indices: row by row, each row in time order
        jp = js.ravel()[p]
        dt = ts.ravel()[p] - t0s[jp]
        x_beta = beta * ((a1s[jp] + s1s[jp] * dt) - (a0s[jp] + s0s[jp] * dt))
        up, down = _rates_from(x_beta, np.fromiter(map(math.exp, (-np.abs(x_beta)).tolist()),
                                                   float, p.size), gamma, rates)
        g = u1s.ravel()[p] * gamma
        accept = np.zeros((2, go.size), dtype=bool)  # forward rate up from 0, down from 1
        accept[0, p], accept[1, p] = g < up, g < down
        accept = accept.reshape((2,) + go.shape)
        # the state: x before each triple, and the flips
        was, flip = np.zeros_like(go), np.zeros_like(go)
        for k in range(first, BLOCK):
            was[:, k] = x
            flip[:, k] = np.where(x, accept[1, :, k], accept[0, :, k])
            x = x ^ flip[:, k]
        f = np.flatnonzero(flip.ravel()[p])
        xf = was.ravel()[p[f]]
        fwd, bwd = np.where(xf, down[f], up[f]), np.where(xf, up[f], down[f])
        if (bwd <= 0.0).any():
            raise ValueError("zero backward rate: schedule is irreversible by construction")
        # each row's flip terms, added in time order
        np.add.at(sigma, p[f] // BLOCK, list(map(math.log, (fwd / bwd).tolist())))
        first = 0
        done = j == m
        for i, s, v in zip(live[done].tolist(), sigma[done].tolist(), x[done].tolist()):
            out[i] = s - math.log(p_fin[v])
        keep = ~done
        live, j, t, x, sigma = live[keep], j[keep], t[keep], x[keep], sigma[keep]
    return out


@dataclass(frozen=True, eq=False)
class EntropyProductionResult:
    """Per-trajectory entropy production samples and their summary; equality is
    identity."""

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
    check_count("seed", seed, least=0)  # here, not after the master solve in run_chunks
    check_count("workers", workers)
    if p0 is None:
        e0, e1 = schedule.start_energies
        p1 = heat_bath(schedule.beta * (e1 - e0))
        p0 = (1.0 - p1, p1)
    p0 = tuple(check_real("p0", v, least=0, most=1) for v in p0)
    p_fin = tuple(integrate_master(schedule, p0, rates=rates).p_final)
    samples = np.asarray(run_chunks(_sigma_lockstep, (schedule, p0, p_fin, rates),
                                    seed, n_traj, workers))
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
