"""Batch experiment runner.

``memlab run config.json [--override key=value]... [--workers n]`` reads a
flat JSON config, checks it against ``EXPERIMENTS`` (each experiment's CSV
header, runner and ``Key`` rules), runs the experiment on the checked dict,
and writes a CSV plus a ``<output>.manifest.json`` sidecar (config echo, seed,
version, wall time).  Every key is checked, and the lattice models and
``SimulationParams`` are built, before any experiment work.
Exit codes: 0 success, 1 config error naming its key, 2 runtime error.

Identical config + seed produces byte-identical CSV bodies regardless of the
worker count; floats are written with ``repr`` so rows round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from datetime import datetime, timezone
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, _shared
from .dynamics import SimulationParams, first_passage, kitaev_memory_lifetime
from .exact import build_generator, spectral_gap
from .lattice import KINDS, build_model
from .qtoolkit import CONTRACTION_TOL, ISOMETRY_TOL, toolkit_sweep
from .thermo import (LN2, MemoryModel, entropy_production_samples,
                     memory_engine_cycle, sawtooth_schedule, szilard_run)


class ConfigError(ValueError):
    """Config problem; maps to exit code 1 with the offending key named."""


# A kind maps (key, value) to the stored value or raises a ValueError that
# names the key.  Numbers and counts follow the library's rule in ``_shared``.
def _kind(ok, error):
    def kind(key, v):
        if not ok(v):
            raise ValueError(error.format(key=key, v=v))
        return v
    return kind


def _enum(*choices):
    """One of ``choices``, of the same type: ``true`` is not 1, nor 1.0."""
    return _kind(lambda v: any(type(v) is type(c) and v == c for c in choices),
                 f"unknown {{key}}: {{v!r}} (key '{{key}}' takes "
                 f"{' / '.join(map(repr, choices))})")


def _rule(check, **bounds):
    return lambda key, v: check(f"key '{key}'", v, **bounds)


STRING = _kind(lambda v: isinstance(v, str), "key '{key}' takes a string, got {v!r}")
INT_GE0, INT_GE1 = (_rule(_shared.check_count, least=k) for k in (0, 1))
NUMBER, NUM_GE0, POSITIVE, HORIZON, PROBABILITY = (_rule(_shared.check_real, **b) for b in (
    {}, {"least": 0}, {"above": 0}, {"above": 0, "inf": True}, {"least": 0, "most": 1}))
BOOLEAN = _kind(lambda v: isinstance(v, bool), "key '{key}' takes true or false, got {v!r}")
RATES = _enum("heat-bath", "metropolis")

REQUIRED = object()  # default of a key the config must give


class Key(NamedTuple):
    kind: Callable
    default: object = REQUIRED
    listed: bool = False  # takes a list; a scalar is a list of one


class Experiment(NamedTuple):
    header: str
    runner: Callable  # checked config -> rows
    keys: dict        # name -> Key


_COMMON = {"experiment": Key(STRING), "output": Key(STRING), "seed": Key(INT_GE0, 0),
           "workers": Key(INT_GE1, 1)}


def _fmt(v):
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _derive(keys, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError a ConfigError naming ``keys``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"key {keys}: {exc}") from None


def _validate(config):
    """(experiment, checked config): every key checked, defaults filled in,
    ``models`` and ``params`` built, before any experiment work."""
    name = config.get("experiment")
    if name is None:
        raise ConfigError("missing required key 'experiment'")
    _enum(*EXPERIMENTS)("experiment", name)
    schema = {**_COMMON, **EXPERIMENTS[name].keys}
    for key in config:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' for experiment '{name}'")
    c = {}
    for key, (kind, default, listed) in schema.items():
        if key not in config:
            if default is REQUIRED:
                raise ConfigError(f"missing required key '{key}'")
            c[key] = default
        elif listed:
            v = config[key]
            c[key] = [kind(key, x) for x in (v if isinstance(v, (list, tuple)) else [v])]
        else:
            c[key] = kind(key, config[key])
    if "sizes" in c:  # Ising2D and Kitaev2D sizes are L, the others N
        model = c.get("model", "Kitaev2D")
        dim = "L" if model in ("Ising2D", "Kitaev2D") else "N"
        c["models"] = [_derive("'sizes'", build_model, model, J=c.get("J", 1.0),
                               move_rate=c.get("move_rate", 1.0), **{dim: size})
                       for size in c["sizes"]]
    if "t_max" in c:  # the lifetime experiments
        c["params"] = _derive("'beta', 't_max' or 'n_traj'", SimulationParams,
                              beta=c["beta"], t_max=c["t_max"], n_traj=c["n_traj"])
    return EXPERIMENTS[name], c


def _run_ising_lifetime(c):
    rows = []
    for model in c["models"]:
        res = first_passage(model, c["params"], seed=c["seed"], workers=c["workers"])
        rows.append((c["model"], model.N, c["beta"], c["J"], res.n_traj,
                     res.censored, res.mean, res.stderr))
    return rows


def _run_kitaev_lifetime(c):
    decoders = ["matching", "bare"] if c["decoder"] == "both" else [c["decoder"]]
    rows = []
    for size in c["sizes"]:
        for dec in decoders:
            res = kitaev_memory_lifetime(size, c["params"], decoder=dec,
                                         seed=c["seed"], workers=c["workers"],
                                         mu=c["mu"], move_rate=c["move_rate"])
            rows.append((size, c["beta"], res.n_traj, res.censored, dec,
                         res.mean, res.stderr))
    return rows


def _run_gap(c):
    return [(c["model"], size, c["beta"],
             spectral_gap(build_generator(model, c["beta"])))
            for size, model in zip(c["sizes"], c["models"])]


def _ramp_rows(c, cycle_mode):
    beta, gamma, rates = c["beta"], c["gamma"], c["rates"]
    e_max = c["beta_E"] / beta
    rows = []
    for p in c["p_init"]:
        for ramp in c["ramp_time"]:
            if cycle_mode:
                res = memory_engine_cycle(MemoryModel(p, stable=c["stable"]), e_max,
                                          ramp, beta, gamma=gamma, rates=rates)
                ledger, net, flag = res.ledger, res.net_extracted, res.violation
            else:
                ledger = szilard_run(e_max, ramp, beta, p, gamma=gamma,
                                     rates=rates)
                net = ledger.extracted_work
                flag = net > LN2 / beta * (1.0 + 1e-9)
            rows.append((p, c["beta_E"], ramp, ledger.work, ledger.heat, net, flag))
    return rows


def _run_fluctuation(c):
    rows = []
    for n_periods in c["n_periods"]:
        sched = sawtooth_schedule(n_periods, c["period"], c["e_max"],
                                  gamma=c["gamma"], beta=c["beta"])
        res = entropy_production_samples(sched, c["n_traj"], seed=c["seed"],
                                         rates=c["rates"], workers=c["workers"])
        rows.append((n_periods * c["period"], res.n_traj, res.mean_sigma,
                     res.ift_estimate, res.p_negative))
    return rows


def _run_toolkit_check(c):
    n = c["n_samples"]
    sweep = toolkit_sweep(n, np.random.default_rng(c["seed"]))
    worst, iso, min_slack = (sweep.max_contraction_violation, sweep.isometry,
                             sweep.min_fannes_slack)
    rows = [
        ("cp-contraction", f"{n} random qubit pairs", worst, CONTRACTION_TOL,
         worst <= CONTRACTION_TOL),
        ("repetition-distance", "3-qubit code / 12 encoded states",
         iso.max_deviation, ISOMETRY_TOL, iso.passed),
        ("fannes-slack", f"{n} in-window qubit/qutrit pairs", min_slack, -1e-10,
         min_slack >= -1e-10),
    ]

    worst_fl = 0.0
    for ramp in (0.0, 1.0, 25.0, 200.0):
        for p in (0.0, 0.25):
            worst_fl = max(worst_fl,
                           szilard_run(5.0, ramp, 1.0, p).first_law_residual())
    rows.append(("first-law", "szilard ledger sweep", worst_fl, 1e-8,
                 worst_fl <= 1e-8))
    return rows


_RAMP_KEYS = {"p_init": Key(PROBABILITY, listed=True), "beta_E": Key(POSITIVE),
              "ramp_time": Key(NUM_GE0, listed=True), "beta": Key(POSITIVE, 1.0),
              "gamma": Key(POSITIVE, 1.0), "rates": Key(RATES, "heat-bath")}
_RAMP_HEADER = "p_init,beta_E,ramp_time,work_on,heat_in,net_extracted,violation_flag"

EXPERIMENTS = {
    "ising-lifetime": Experiment(
        "model,N,beta,J,n_traj,censored,mean_lifetime,stderr", _run_ising_lifetime,
        {"model": Key(_enum(*(k for k in KINDS if k != "Kitaev2D"))),
         "sizes": Key(INT_GE1, listed=True), "beta": Key(NUM_GE0), "J": Key(NUMBER, 1.0),
         "n_traj": Key(INT_GE1), "t_max": Key(HORIZON, math.inf)}),
    "kitaev-lifetime": Experiment(
        "L,beta,n_traj,censored,decoder,mean_lifetime,stderr", _run_kitaev_lifetime,
        {"sizes": Key(INT_GE1, listed=True), "beta": Key(NUM_GE0), "n_traj": Key(INT_GE1),
         "t_max": Key(HORIZON, math.inf),
         "decoder": Key(_enum("matching", "bare", "both"), "matching"),
         "move_rate": Key(NUM_GE0, 1.0), "mu": Key(_enum(1, 2), 1)}),
    "gap": Experiment(
        "model,size,beta,gap", _run_gap,
        {"model": Key(_enum(*KINDS)), "sizes": Key(INT_GE1, listed=True),
         "beta": Key(NUM_GE0), "J": Key(NUMBER, 1.0), "move_rate": Key(NUM_GE0, 1.0)}),
    "szilard": Experiment(_RAMP_HEADER, partial(_ramp_rows, cycle_mode=False), _RAMP_KEYS),
    "cycle": Experiment(_RAMP_HEADER, partial(_ramp_rows, cycle_mode=True),
                        {**_RAMP_KEYS, "stable": Key(BOOLEAN, True)}),
    "fluctuation": Experiment(
        "duration,n_traj,mean_sigma,ift_estimate,p_sigma_negative", _run_fluctuation,
        {"n_periods": Key(INT_GE1, listed=True), "period": Key(POSITIVE),
         "e_max": Key(NUMBER), "beta": Key(POSITIVE, 1.0), "gamma": Key(POSITIVE, 1.0),
         "n_traj": Key(INT_GE1), "rates": Key(RATES, "heat-bath")}),
    "toolkit-check": Experiment(
        "check,detail,value,threshold,pass", _run_toolkit_check,
        {"n_samples": Key(INT_GE1, 10000)}),
}


def _apply_overrides(config, overrides):
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    return config


def run(config: dict, workers_flag: int | None = None) -> tuple[str, str]:
    """Validate, dispatch, and write outputs; returns (csv_path, manifest_path).

    ``workers_flag``, when given, overrides the config's ``workers``.  A
    ValueError, from a key's check or from the run (a size limit, say), is
    raised as a ConfigError.
    """
    try:
        experiment, c = _validate(config if workers_flag is None
                                  else {**config, "workers": workers_flag})
        start = time.monotonic()
        rows = experiment.runner(c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    wall = time.monotonic() - start

    out_path = c["output"]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(experiment.header.split(","))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    manifest_path = out_path + ".manifest.json"
    manifest = {
        "config": config,
        "experiment": c["experiment"],
        "seed": c["seed"],
        "workers": c["workers"],
        "version": __version__,
        "wall_time_s": wall,
        "written_at": datetime.now(timezone.utc).isoformat(),
        "rows": len(rows),
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_path, manifest_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memlab", description="batch experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to a JSON config file")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    run_p.add_argument("--workers", type=int, default=None,
                       help="trajectory worker count")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        _apply_overrides(config, args.override)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        csv_path, _ = run(config, workers_flag=args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures, unwritable outputs, ...
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
