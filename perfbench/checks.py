"""Output checks: what any correct implementation must satisfy.

The checks are statistical or physical, never byte comparisons, so that a
change to the random stream or to the decoder's pairing (for example exact
matching above 12 anyons) is not counted as a failure.  Each check returns a
list of failure messages; an empty list means the output passed.

The oracles (birth-death mean first-passage time, the second moment of the
integral fluctuation theorem estimator, event-record replay) are written here
from the definitions rather than by calling library code paths.
"""

from __future__ import annotations

import csv
import math
import statistics

import numpy as np
from scipy.integrate import solve_ivp

KITAEV_GAP_ANCHORS = {2: 0.635341, 3: 0.861114}
GAP_ANCHOR_TOL = 1e-5
RING_GAP_TOL = 1e-8
SZILARD_SLOW_RAMP_REL = 0.02
FIRST_LAW_TOL = 1e-8
Z_LIMIT = 4.0


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _heat_bath(x: float) -> float:
    if x > 0:
        return math.exp(-x) / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + math.exp(x))


# ---------------------------------------------------------------------------
# oracles


def mean_field_mfpt(N: int, beta: float, J: float) -> float:
    """Exact mean time for the all-up mean-field bit to reach M <= 0.

    The number k of overturned spins is a birth-death chain with
    heat-bath rates; the mean first-passage time to k = ceil(N/2) solves a
    tridiagonal linear system over the transient states.
    """
    size = (N + 1) // 2
    A = np.zeros((size, size))
    for k in range(size):
        M = N - 2 * k
        up = (N - k) * _heat_bath(beta * (2.0 * J / N) * (M - 1.0))
        down = k * _heat_bath(beta * (2.0 * J / N) * (-M - 1.0))
        A[k, k] = -(up + down)
        if k + 1 < size:
            A[k, k + 1] = up
        if k > 0:
            A[k, k - 1] = down
    return float(np.linalg.solve(A, -np.ones(size))[0])


def ift_second_moment(n_periods: int, period: float, e_max: float,
                      beta: float = 1.0, gamma: float = 1.0) -> float:
    """E[exp(-2 sigma)] of the sawtooth-driven two-level system.

    sigma is the trajectory entropy production from an equilibrium start at
    degenerate levels.  Weighting each jump by (backward/forward)^lambda
    tilts the master equation; lambda = 0 gives the final law and lambda = 2
    the second moment, so the estimator's standard error is
    sqrt((E[exp(-2 sigma)] - 1) / n).
    """
    half = period / 2.0
    ramps = []
    for k in range(n_periods):
        t0 = k * period
        ramps.append((t0, t0 + half, 0.0, e_max))
        ramps.append((t0 + half, t0 + period, e_max, 0.0))

    def propagator(lam):
        K = np.eye(2)
        for a, b, ea, eb in ramps:
            def rhs(t, y):
                e1 = ea + (eb - ea) * (t - a) / (b - a)
                up = gamma * _heat_bath(beta * e1)
                down = gamma * _heat_bath(-beta * e1)
                G = np.array([[-up, down * (up / down) ** lam],
                              [up * (down / up) ** lam, -down]])
                return (G @ y.reshape(2, 2)).ravel()

            sol = solve_ivp(rhs, (a, b), K.ravel(), method="DOP853",
                            rtol=1e-10, atol=1e-13)
            K = sol.y[:, -1].reshape(2, 2)
        return K

    p0 = np.array([0.5, 0.5])
    p_fin = propagator(0) @ p0
    K2 = propagator(2)
    return float(sum(p_fin[y] ** 2 * K2[y, x] / p0[x]
                     for x in range(2) for y in range(2)))


# ---------------------------------------------------------------------------
# per-experiment checks on CSV rows


def check_ising_lifetime(rows, config) -> list:
    out = []
    for r in rows:
        label = f"{r['model']} N={r['N']}"
        if int(r["censored"]) != 0:
            out.append(f"{label}: {r['censored']} censored trajectories")
        if r["model"] == "IsingMeanField":
            ref = mean_field_mfpt(int(r["N"]), float(r["beta"]), float(r["J"]))
            mean, se = float(r["mean_lifetime"]), float(r["stderr"])
            if not abs(mean - ref) <= Z_LIMIT * se:
                out.append(f"{label}: lifetime {mean:.4g} +- {se:.2g} is more "
                           f"than {Z_LIMIT} stderr from the birth-death mean {ref:.4g}")
    if len(rows) != len(config["sizes"]):
        out.append(f"{len(rows)} rows for {len(config['sizes'])} sizes")
    return out


def check_kitaev_lifetime(rows, config) -> list:
    out = [f"L={r['L']} {r['decoder']}: {r['censored']} censored"
           for r in rows if int(r["censored"]) != 0]
    if len(rows) != 2 * len(config["sizes"]):
        out.append(f"{len(rows)} rows for {len(config['sizes'])} sizes x 2 decoders")
    return out


def check_matching_beats_bare(rows, config) -> list:
    """Matching outlives the bare readout at L=8, pooled over every
    kitaev-lifetime row of a pass: a single small ensemble can lose by
    chance, the pooled one (96 trajectories a side) by less than 1e-3."""
    totals = {}
    for r in rows:
        if int(r["L"]) == 8:
            n = int(r["n_traj"])
            s, m = totals.get(r["decoder"], (0.0, 0))
            totals[r["decoder"]] = (s + n * float(r["mean_lifetime"]), m + n)
    means = {d: s / n for d, (s, n) in totals.items()}
    m, b = means.get("matching"), means.get("bare")
    if m is None or b is None or not m > b:
        return [f"L=8: pooled matching mean {m} is not above bare mean {b}"]
    return []


def check_gap(rows, config) -> list:
    out = []
    gaps = {int(r["size"]): float(r["gap"]) for r in rows}
    if config["model"] == "Kitaev2D":
        for L, anchor in KITAEV_GAP_ANCHORS.items():
            if L in gaps and not abs(gaps[L] - anchor) <= GAP_ANCHOR_TOL:
                out.append(f"Kitaev2D L={L}: gap {gaps[L]!r} is not within "
                           f"{GAP_ANCHOR_TOL} of {anchor}")
    elif config["model"] == "Ising1D" and len(gaps) >= 2:
        # the heat-bath ring gap does not depend on N; the pair straddles
        # the dense/sparse solver switch
        values = list(gaps.values())
        if not max(values) - min(values) <= RING_GAP_TOL:
            out.append(f"Ising1D ring gaps {gaps} disagree by more than {RING_GAP_TOL}")
    if sorted(gaps) != sorted(config["sizes"]):
        out.append(f"gap rows for sizes {sorted(gaps)}, expected {config['sizes']}")
    return out


def check_ramp(rows, config) -> list:
    """Szilard strokes and engine cycles start and end at degenerate zero
    levels, so U(end) = U(start) and the first law reads W + Q = 0."""
    out = []
    for r in rows:
        w, q = float(r["work_on"]), float(r["heat_in"])
        if not abs(w + q) <= FIRST_LAW_TOL * max(abs(w), abs(q), 1.0):
            out.append(f"p={r['p_init']} ramp={r['ramp_time']}: "
                       f"first-law residual {abs(w + q):.3g}")
    if config["experiment"] == "szilard":
        beta = float(config.get("beta", 1.0))
        beta_e = float(config["beta_E"])
        target = (math.log(2.0) - math.log1p(math.exp(-beta_e))) / beta
        slow = max(float(r["ramp_time"]) for r in rows)
        for r in rows:
            if float(r["p_init"]) == 0.0 and float(r["ramp_time"]) == slow:
                net = float(r["net_extracted"])
                if not abs(net - target) <= SZILARD_SLOW_RAMP_REL * target:
                    out.append(f"slow ramp extracts {net:.6g}, not within "
                               f"{SZILARD_SLOW_RAMP_REL:.0%} of {target:.7g}")
    return out


_IFT_MOMENTS = {}


def _ift_stderr(n_periods, n_traj, config) -> float:
    key = (n_periods, float(config["period"]), float(config["e_max"]),
           float(config.get("beta", 1.0)), float(config.get("gamma", 1.0)))
    if key not in _IFT_MOMENTS:
        _IFT_MOMENTS[key] = ift_second_moment(*key)
    return math.sqrt((_IFT_MOMENTS[key] - 1.0) / n_traj)


def check_fluctuation(rows, config) -> list:
    periods = sorted(round(float(r["duration"]) / float(config["period"])) for r in rows)
    if periods != sorted(config["n_periods"]):
        return [f"rows for {periods} periods, expected {config['n_periods']}"]
    return [f"row of {r['duration']} has {r['n_traj']} trajectories"
            for r in rows if int(r["n_traj"]) != config["n_traj"]]


def check_ift_median(rows, config) -> list:
    """The median IFT estimate over the pass's copies of each duration lies
    within Z_LIMIT standard errors of 1.

    A single estimate's tail is heavier than Gaussian: one trajectory with a
    large exp(-sigma) can carry it far above 1 (300 replicas of 1000
    trajectories gave |z| > 4 in 0.3-0.7% of rows, up to z = 9.2), while it
    never strays far below.  The median of the copies needs two such
    trajectories in one pass to fail.
    """
    out = []
    by_duration = {}
    for r in rows:
        by_duration.setdefault(r["duration"], []).append(r)
    for duration, group in by_duration.items():
        n_periods = round(float(duration) / float(config["period"]))
        se = _ift_stderr(n_periods, int(group[0]["n_traj"]), config)
        ift = statistics.median(float(r["ift_estimate"]) for r in group)
        if not abs(ift - 1.0) <= Z_LIMIT * se:
            out.append(f"{n_periods} periods: median IFT estimate {ift:.4g} of "
                       f"{len(group)} copies is more than {Z_LIMIT} stderr "
                       f"({se:.3g}) from 1")
    return out


def check_toolkit(rows, config) -> list:
    out = [f"toolkit row {r['check']} failed: value {r['value']} "
           f"threshold {r['threshold']}" for r in rows if r["pass"] != "1"]
    if not rows:
        out.append("no toolkit rows")
    return out


CSV_CHECKS = {
    "ising-lifetime": check_ising_lifetime,
    "kitaev-lifetime": check_kitaev_lifetime,
    "gap": check_gap,
    "szilard": check_ramp,
    "cycle": check_ramp,
    "fluctuation": check_fluctuation,
    "toolkit-check": check_toolkit,
}


# checks on the rows of every operation of one experiment in a pass, with
# the config the operations share
POOLED_CHECKS = {"kitaev-lifetime": check_matching_beats_bare,
                 "fluctuation": check_ift_median}


def check_csv(path: str, config) -> list:
    return CSV_CHECKS[config["experiment"]](read_rows(path), config)


# ---------------------------------------------------------------------------
# library-call checks


def check_record(model, record, t_max: float, cadence: float) -> list:
    """Replay the event list and compare it with the probes and final state.

    The probe observable is the magnetization (Ising kinds) or the anyon
    count (Kitaev2D) after every event up to the probe time.
    """
    out = []
    kitaev = model.kind == "Kitaev2D"
    if kitaev:
        occ = np.zeros(model.L * model.L, dtype=np.int64)
        err = set()
        value = 0
    else:
        spins = np.ones(model.N, dtype=np.int64)
        value = model.N
    events = record.events
    expected_probes = []
    probe_t = cadence
    last_t = 0.0
    for t, ev in events:
        if not last_t < t <= t_max:
            out.append(f"event time {t!r} out of order or beyond t_max")
            break
        if not ev.rate > 0.0:
            out.append(f"event at {t!r} has rate {ev.rate!r}")
            break
        while probe_t <= t:
            expected_probes.append((probe_t, float(value)))
            probe_t += cadence
        last_t = t
        if kitaev:
            err ^= {ev.site}
            for p in model.edge_plaquettes[ev.site]:
                occ[p] ^= 1
                value += 1 if occ[p] else -1
        else:
            spins[ev.site] *= -1
            value += 2 * int(spins[ev.site])
    while probe_t <= t_max:
        expected_probes.append((probe_t, float(value)))
        probe_t += cadence
    if record.probes != expected_probes:
        bad = next((i for i, (a, b) in enumerate(zip(record.probes, expected_probes))
                    if a != b), min(len(record.probes), len(expected_probes)))
        out.append(f"probe {bad} disagrees with the replayed events "
                   f"({len(record.probes)} probes, {len(expected_probes)} expected)")
    if kitaev:
        if set(record.final_state) != err:
            out.append("final error set disagrees with the replayed events")
    elif not np.array_equal(np.asarray(record.final_state.spins), spins):
        out.append("final spins disagree with the replayed events")
    return out


def check_decodes(decodes, syndrome_of) -> dict:
    """Failure messages by operation id for corrections whose syndrome differs.

    Args:
        decodes: (op id, Syndrome, L, Correction) tuples.
        syndrome_of: (L, edges, sector) -> Syndrome.
    """
    out = {}
    for op_id, syn, L, corr in decodes:
        got = syndrome_of(L, corr.edges, syn.sector)
        if got != syn:
            out.setdefault(op_id, []).append(
                f"L={L}: correction of {sorted(syn.anyons)} has syndrome "
                f"{sorted(got.anyons)}")
    return out
