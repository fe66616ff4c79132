"""Import graph of a cold start: the Monte Carlo paths and the ledgers never
load scipy.

``import memlab`` and ``import memlab.cli`` load numpy and the standard
library only.  scipy loads on the first generator build and
``multiprocessing`` on the first pool, so lifetime runs do not pay for
either, and the work/heat ledgers (a panel-quadrature master solve) never
need scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json
import sys

import memlab, memlab.cli


def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing"))


assert not heavy(), heavy()[:5]
out, configs = sys.argv[1], json.loads(sys.argv[2])
for name, config in configs.items():
    memlab.cli.run(dict(config, output=out + "/" + name + ".csv"), workers_flag=1)
assert not heavy(), heavy()[:5]
"""


def _run_probe(tmp_path, configs):
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path), json.dumps(configs)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in configs:
        assert (tmp_path / f"{name}.csv").exists()


def test_lifetime_runs_load_neither_scipy_nor_multiprocessing(tmp_path):
    _run_probe(tmp_path, {
        "ising": dict(experiment="ising-lifetime", model="Ising1D", sizes=[4], beta=0.5,
                      n_traj=4, t_max=5.0),
        "kitaev": dict(experiment="kitaev-lifetime", sizes=[3], beta=0.8, n_traj=4,
                       t_max=5.0, decoder="both"),
    })


def test_ledger_runs_load_no_scipy(tmp_path):
    _run_probe(tmp_path, {
        "szilard": dict(experiment="szilard", p_init=[0.0, 0.25], beta_E=5.0,
                        ramp_time=[0.0, 10.0], beta=1.0),
        "cycle": dict(experiment="cycle", p_init=[0.0, 0.3], beta_E=5.0, ramp_time=10.0,
                      beta=1.0, stable=True, rates="metropolis"),
        "fluctuation": dict(experiment="fluctuation", n_periods=[2, 4], period=1.0,
                            e_max=2.0, n_traj=20, seed=5),
        "toolkit": dict(experiment="toolkit-check", n_samples=200, seed=3),
    })
