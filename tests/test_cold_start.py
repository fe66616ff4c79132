"""Import graph of a cold start: the Monte Carlo paths never load scipy.

``import memlab`` and ``import memlab.cli`` load numpy and the standard
library only.  scipy loads on the first exact solve and ``multiprocessing``
on the first pool, so lifetime runs do not pay for either.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys

import memlab, memlab.cli


def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing"))


assert not heavy(), heavy()[:5]
out = sys.argv[1]
memlab.cli.run(dict(experiment="ising-lifetime", model="Ising1D", sizes=[4],
                    beta=0.5, n_traj=4, t_max=5.0, output=out + "/ising.csv"),
               workers_flag=1)
memlab.cli.run(dict(experiment="kitaev-lifetime", sizes=[3], beta=0.8,
                    n_traj=4, t_max=5.0, decoder="both", output=out + "/kitaev.csv"),
               workers_flag=1)
assert not heavy(), heavy()[:5]
"""


def test_lifetime_runs_load_neither_scipy_nor_multiprocessing(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ising.csv").exists() and (tmp_path / "kitaev.csv").exists()
