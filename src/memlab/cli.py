"""Batch experiment runner.

``memlab run config.json [--override key=value]... [--workers n]`` reads a
flat JSON config, dispatches one experiment, and writes a CSV plus a
``<output>.manifest.json`` sidecar (config echo, seed, version, wall time).
Exit codes: 0 success, 1 config/validation error, 2 runtime error.

Identical config + seed produces byte-identical CSV bodies regardless of the
worker count; floats are written with ``repr`` so rows round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .dynamics import SimulationParams, first_passage, kitaev_memory_lifetime
from .exact import build_generator, spectral_gap
from .lattice import build_model
from .qtoolkit import CONTRACTION_TOL, ISOMETRY_TOL, toolkit_sweep
from .thermo import (LN2, MemoryModel, entropy_production_samples,
                     memory_engine_cycle, sawtooth_schedule, szilard_run)


class ConfigError(ValueError):
    """Config problem; maps to exit code 1 with the offending key named."""


_COMMON_KEYS = {"experiment", "output", "seed", "workers"}
_EXPERIMENT_KEYS = {
    "ising-lifetime": {"model", "sizes", "beta", "J", "n_traj", "t_max"},
    "kitaev-lifetime": {"sizes", "beta", "n_traj", "t_max", "decoder",
                        "move_rate", "mu"},
    "gap": {"model", "sizes", "beta", "J", "move_rate"},
    "szilard": {"p_init", "beta_E", "ramp_time", "beta", "gamma", "rates"},
    "cycle": {"p_init", "beta_E", "ramp_time", "beta", "gamma", "rates",
              "stable"},
    "fluctuation": {"n_periods", "period", "e_max", "beta", "gamma", "n_traj",
                    "rates"},
    "toolkit-check": {"n_samples"},
}

_HEADERS = {
    "ising-lifetime": "model,N,beta,J,n_traj,censored,mean_lifetime,stderr",
    "kitaev-lifetime": "L,beta,n_traj,censored,decoder,mean_lifetime,stderr",
    "gap": "model,size,beta,gap",
    "szilard": "p_init,beta_E,ramp_time,work_on,heat_in,net_extracted,violation_flag",
    "cycle": "p_init,beta_E,ramp_time,work_on,heat_in,net_extracted,violation_flag",
    "fluctuation": "duration,n_traj,mean_sigma,ift_estimate,p_sigma_negative",
    "toolkit-check": "check,detail,value,threshold,pass",
}


def _fmt(v):
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _require(config, key, types=None):
    if key not in config:
        raise ConfigError(f"missing required key '{key}'")
    v = config[key]
    if types is not None and not isinstance(v, types):
        raise ConfigError(f"key '{key}' has the wrong type")
    return v


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _validate(config):
    experiment = _require(config, "experiment", str)
    if experiment not in _EXPERIMENT_KEYS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    allowed = _COMMON_KEYS | _EXPERIMENT_KEYS[experiment]
    for key in config:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' for experiment '{experiment}'")
    _require(config, "output", str)
    _integer(config.get("seed", 0), "seed")
    return experiment


def _integer(v, key):
    """``v`` if it is an integer (booleans are not), else a ConfigError naming ``key``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"key '{key}' takes integers, got {v!r}")
    return v


def _number(v, key):
    """``v`` as a float if it is a JSON number (booleans and strings are not),
    else a ConfigError naming ``key``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key '{key}' takes numbers, got {v!r}")
    return float(v)


def _model_for(kind, size, J, move_rate=1.0):
    """Model for one ``sizes`` entry: L of Ising2D and Kitaev2D, N otherwise."""
    size = _integer(size, "sizes")
    if kind == "Kitaev2D":
        return build_model(kind, L=size, J=J, move_rate=move_rate)
    if kind == "Ising2D":
        return build_model(kind, L=size, J=J)
    return build_model(kind, N=size, J=J)


def _sim_params(config, beta):
    n_traj = _integer(_require(config, "n_traj"), "n_traj")
    t_max = _number(config.get("t_max", math.inf), "t_max")
    try:
        return SimulationParams(beta=beta, t_max=t_max, n_traj=n_traj)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_ising_lifetime(config, seed, workers):
    kind = _require(config, "model", str)
    if kind == "Kitaev2D":
        raise ConfigError("key 'model' takes an Ising kind; Kitaev2D runs as kitaev-lifetime")
    beta = _number(_require(config, "beta"), "beta")
    J = _number(config.get("J", 1.0), "J")
    params = _sim_params(config, beta)
    rows = []
    for size in _as_list(_require(config, "sizes")):
        model = _model_for(kind, size, J)
        res = first_passage(model, params, seed=seed, workers=workers)
        rows.append((kind, model.N, beta, J, res.n_traj, res.censored,
                     res.mean, res.stderr))
    return rows


def _run_kitaev_lifetime(config, seed, workers):
    beta = _number(_require(config, "beta"), "beta")
    decoder = config.get("decoder", "matching")
    decoders = ["matching", "bare"] if decoder == "both" else [decoder]
    move_rate = _number(config.get("move_rate", 1.0), "move_rate")
    mu = _integer(config.get("mu", 1), "mu")
    params = _sim_params(config, beta)
    rows = []
    for size in _as_list(_require(config, "sizes")):
        size = _integer(size, "sizes")
        for dec in decoders:
            res = kitaev_memory_lifetime(size, params, decoder=dec,
                                         seed=seed, workers=workers, mu=mu,
                                         move_rate=move_rate)
            rows.append((size, beta, res.n_traj, res.censored, dec,
                         res.mean, res.stderr))
    return rows


def _run_gap(config, seed, workers):
    kind = _require(config, "model", str)
    beta = _number(_require(config, "beta"), "beta")
    J = _number(config.get("J", 1.0), "J")
    move_rate = _number(config.get("move_rate", 1.0), "move_rate")
    rows = []
    for size in _as_list(_require(config, "sizes")):
        model = _model_for(kind, size, J, move_rate)
        gap = spectral_gap(build_generator(model, beta))
        rows.append((kind, size, beta, gap))
    return rows


def _ramp_rows(config, cycle_mode):
    beta = _number(config.get("beta", 1.0), "beta")
    gamma = _number(config.get("gamma", 1.0), "gamma")
    rates = config.get("rates", "heat-bath")
    beta_e = _number(_require(config, "beta_E"), "beta_E")
    e_max = beta_e / beta
    stable = config.get("stable", True)
    if not isinstance(stable, bool):
        raise ConfigError(f"key 'stable' takes true or false, got {stable!r}")
    rows = []
    for p in _as_list(_require(config, "p_init")):
        for ramp in _as_list(_require(config, "ramp_time")):
            p, ramp = _number(p, "p_init"), _number(ramp, "ramp_time")
            if cycle_mode:
                res = memory_engine_cycle(MemoryModel(p, stable=stable), e_max,
                                          ramp, beta, gamma=gamma, rates=rates)
                ledger, net, flag = res.ledger, res.net_extracted, res.violation
            else:
                ledger = szilard_run(e_max, ramp, beta, p, gamma=gamma,
                                     rates=rates)
                net = ledger.extracted_work
                flag = net > LN2 / beta * (1.0 + 1e-9)
            rows.append((p, beta_e, ramp, ledger.work_on_system,
                         ledger.heat_into_system, net, flag))
    return rows


def _run_fluctuation(config, seed, workers):
    beta = _number(config.get("beta", 1.0), "beta")
    gamma = _number(config.get("gamma", 1.0), "gamma")
    rates = config.get("rates", "heat-bath")
    period = _number(_require(config, "period"), "period")
    e_max = _number(_require(config, "e_max"), "e_max")
    n_traj = _integer(_require(config, "n_traj"), "n_traj")
    rows = []
    for n_periods in _as_list(_require(config, "n_periods")):
        n_periods = _integer(n_periods, "n_periods")
        sched = sawtooth_schedule(n_periods, period, e_max, gamma=gamma,
                                  beta=beta)
        res = entropy_production_samples(sched, n_traj, seed=seed, rates=rates,
                                         workers=workers)
        rows.append((n_periods * period, res.n_traj, res.mean_sigma,
                     res.ift_estimate, res.p_negative))
    return rows


def _run_toolkit_check(config, seed, workers):
    n = _integer(config.get("n_samples", 10000), "n_samples")
    if n < 1:
        raise ConfigError("key 'n_samples' must be positive")
    sweep = toolkit_sweep(n, np.random.default_rng(seed))
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


_RUNNERS = {
    "ising-lifetime": _run_ising_lifetime,
    "kitaev-lifetime": _run_kitaev_lifetime,
    "gap": _run_gap,
    "szilard": lambda c, s, w: _ramp_rows(c, cycle_mode=False),
    "cycle": lambda c, s, w: _ramp_rows(c, cycle_mode=True),
    "fluctuation": _run_fluctuation,
    "toolkit-check": _run_toolkit_check,
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
    """Validate, dispatch, and write outputs; returns (csv_path, manifest_path)."""
    experiment = _validate(config)
    seed = int(config.get("seed", 0))
    workers = workers_flag
    if workers is None:
        workers = config.get("workers")
    if workers is None:
        env = os.environ.get("MEMLAB_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"key 'workers' (MEMLAB_WORKERS={env!r}) "
                              "must be a positive integer") from None
    if _integer(workers, "workers") < 1:
        raise ConfigError("key 'workers' must be a positive integer")

    start = time.monotonic()
    try:
        rows = _RUNNERS[experiment](config, seed, workers)
    except ConfigError:
        raise
    except ValueError as exc:
        # invalid parameter combinations surface as validation errors
        raise ConfigError(str(exc)) from None
    wall = time.monotonic() - start

    out_path = config["output"]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADERS[experiment].split(","))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    manifest_path = out_path + ".manifest.json"
    manifest = {
        "config": config,
        "experiment": experiment,
        "seed": seed,
        "workers": workers,
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
