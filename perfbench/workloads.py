"""The benchmark's workloads: fixed operation lists generated from a seed.

An operation is either one ``memlab.cli.run(config)`` call, the path users
run, or one public library call (``simulate_trajectory`` on a freshly built
model).  Sizes and inverse temperatures are fixed because they decide which
code path runs.  The trajectory counts, run lengths and the number of copies
of each operation are sized so that one pass of a workload takes 4-10 s on a
2-core machine, in operations of at most a second or two apart from the
Kitaev2D L=3 gap (see README.md).  Short operations keep the machine-speed
normalisation of ``speed.py`` local in time.

Every operation uses ``workers=1``.  The seed given on the command line is
the only source of randomness: operation ``j`` of pass ``k`` of a run with
seed ``s`` gets its seed from ``(s, k, j)``, so the same seed always gives
the same inputs, while passes and copies of one operation draw independent
samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

# Why each workload exists; README.md explains these at length.
WHY = {
    "ising-passage": "dynamics does the work, two ways: first-passage "
                     "stop-predicate loops and the recording loop",
    "toric-memory": "decoder-bound toric-code lifetimes: subset DP at L=8, "
                    "greedy fallback at L=16, and the bare probe loop",
    "exact-ledgers": "no Monte Carlo lifetimes: exact generator spectra, "
                     "master-equation ledgers and the qtoolkit sweep",
}

# Experiments whose time goes to native code (sparse eigensolver, LAPACK)
# rather than to the interpreter.  Under load from other tenants their wall
# time moved by 15-30% while the reference kernel of speed.py slowed down
# 1.7-2x, so normalising them would add noise instead of removing it.
AS_MEASURED = frozenset({"gap"})

RECORD_CADENCE = 1.0
RECORD_T_MAX = {"IsingMeanField": 3000.0, "Ising1D": 3000.0,
                "Ising2D": 1500.0, "Kitaev2D": 250.0}


@dataclass(frozen=True)
class Operation:
    """One timed call.

    Attributes:
        name: label unique within the workload, used in reports.
        kind: ``"cli"`` (``memlab.cli.run``) or ``"record"``
            (``memlab.dynamics.simulate_trajectory``).
        config: the cli config, or the record parameters
            (``model``, ``size``, ``beta``, ``t_max``, ``seed``).
    """

    name: str
    kind: str
    config: dict = field(hash=False)


def derive_seed(seed: int, pass_index: int, op_index: int) -> int:
    """31-bit operation seed from (run seed, pass, operation index)."""
    digest = hashlib.sha256(f"{seed}/{pass_index}/{op_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _copies(name, config, n):
    return [Operation(f"{name}#{c}", "cli", config) for c in range(n)]


def _ising_passage():
    ops = (
        _copies("ising-lifetime/IsingMeanField",
                {"experiment": "ising-lifetime", "model": "IsingMeanField",
                 "sizes": [8, 16], "beta": 1.35, "t_max": 5000.0, "n_traj": 500}, 2)
        + _copies("ising-lifetime/Ising1D",
                  {"experiment": "ising-lifetime", "model": "Ising1D",
                   "sizes": [16, 32], "beta": 1.35, "t_max": 5000.0,
                   "n_traj": 100}, 3)
        + _copies("ising-lifetime/Ising2D",
                  {"experiment": "ising-lifetime", "model": "Ising2D",
                   "sizes": [8], "beta": 0.4, "t_max": 2000.0, "n_traj": 10}, 2)
    )
    for model, size, beta in (("IsingMeanField", 16, 1.35), ("Ising1D", 32, 1.35),
                              ("Ising2D", 8, 0.44), ("Kitaev2D", 8, 1.5)):
        ops.append(Operation(f"record/{model}", "record",
                             {"model": model, "size": size, "beta": beta,
                              "t_max": RECORD_T_MAX[model]}))
    return ops


def _toric_memory():
    return _copies("kitaev-lifetime",
                   {"experiment": "kitaev-lifetime", "sizes": [8, 16],
                    "beta": 1.5, "t_max": 3000.0, "decoder": "both",
                    "n_traj": 12}, 8)


def _exact_ledgers():
    # szilard, cycle, fluctuation and toolkit-check mirror configs/*.json
    ops = [
        Operation("gap/Kitaev2D", "cli",
                  {"experiment": "gap", "model": "Kitaev2D", "sizes": [2, 3],
                   "beta": 1.0}),
        Operation("gap/Ising1D", "cli",
                  {"experiment": "gap", "model": "Ising1D", "sizes": [11, 12],
                   "beta": 1.0}),
        Operation("szilard", "cli",
                  {"experiment": "szilard", "p_init": [0.0, 0.1, 0.25],
                   "beta_E": 5.0, "ramp_time": [0.0, 10.0, 100.0, 400.0],
                   "beta": 1.0}),
        Operation("cycle", "cli",
                  {"experiment": "cycle",
                   "p_init": [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5],
                   "beta_E": 5.0, "ramp_time": 400.0, "beta": 1.0,
                   "stable": True}),
    ]
    # the 2000 samples of each config, in four and two operations
    return (ops
            + _copies("fluctuation",
                      {"experiment": "fluctuation", "n_periods": [10, 20, 40],
                       "period": 1.0, "e_max": 2.0, "n_traj": 500}, 4)
            + _copies("toolkit-check",
                      {"experiment": "toolkit-check", "n_samples": 1000}, 2))


_TEMPLATES = {
    "ising-passage": _ising_passage,
    "toric-memory": _toric_memory,
    "exact-ledgers": _exact_ledgers,
}


def operations(workload: str, seed: int, pass_index: int, out_dir: str):
    """The operation list of one pass, with seeds and output paths filled in."""
    ops = []
    for j, op in enumerate(_TEMPLATES[workload]()):
        cfg = dict(op.config, seed=derive_seed(seed, pass_index, j))
        if op.kind == "cli":
            cfg["workers"] = 1
            cfg["output"] = f"{out_dir}/{j}-{op.config['experiment']}.csv"
        ops.append(Operation(op.name, op.kind, cfg))
    return ops
