"""Config handling, CSV output, reproducibility, and exit codes of the runner."""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import memlab
from memlab import szilard_run
from memlab.cli import EXPERIMENTS, REQUIRED, main

SRC = Path(memlab.__file__).resolve().parents[1]


def _write_config(path, **entries):
    path.write_text(json.dumps(entries))
    return str(path)


def _rows(path):
    """The CSV's rows as dicts; the file is closed again."""
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _gap_config(tmp_path, **extra):
    out = tmp_path / "gap.csv"
    cfg = dict(experiment="gap", model="IsingMeanField", sizes=[1], beta=2.0,
               output=str(out))
    cfg.update(extra)
    return _write_config(tmp_path / "gap.json", **cfg), out


# ---------------------------------------------------------------------------
# happy path


def test_single_spin_gap_golden_row(tmp_path, capsys):
    cfg, out = _gap_config(tmp_path)
    assert main(["run", cfg]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "model,size,beta,gap"
    assert lines[1] == "IsingMeanField,1,2.0,1.0"


def test_manifest_sidecar_contents(tmp_path):
    cfg, out = _gap_config(tmp_path, seed=42)
    assert main(["run", cfg]) == 0
    manifest = json.loads((tmp_path / "gap.csv.manifest.json").read_text())
    assert manifest["experiment"] == "gap"
    assert manifest["seed"] == 42
    assert manifest["workers"] == 1
    assert manifest["version"] == memlab.__version__
    assert manifest["rows"] == 1
    assert manifest["config"]["model"] == "IsingMeanField"
    assert manifest["wall_time_s"] >= 0.0


def test_identical_config_gives_identical_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = dict(experiment="fluctuation", n_periods=[1, 2], period=1.0,
                e_max=2.0, n_traj=150, seed=7)
    cfg_a = _write_config(tmp_path / "a.json", output=str(out_a), **base)
    cfg_b = _write_config(tmp_path / "b.json", output=str(out_b), **base)
    assert main(["run", cfg_a]) == 0
    assert main(["run", cfg_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    out_a = tmp_path / "w1.csv"
    out_b = tmp_path / "w3.csv"
    base = dict(experiment="fluctuation", n_periods=[2], period=1.0,
                e_max=2.0, n_traj=90, seed=3)
    cfg_a = _write_config(tmp_path / "w1.json", output=str(out_a), **base)
    cfg_b = _write_config(tmp_path / "w3.json", output=str(out_b), **base)
    assert main(["run", cfg_a, "--workers", "1"]) == 0
    assert main(["run", cfg_b, "--workers", "3"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_ising_lifetime_reports_site_counts(tmp_path):
    out = tmp_path / "life.csv"
    cfg = _write_config(
        tmp_path / "life.json", experiment="ising-lifetime", model="Ising2D",
        sizes=[2], beta=0.4, n_traj=10, t_max=50.0, output=str(out), seed=1)
    assert main(["run", cfg]) == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert rows[0]["model"] == "Ising2D"
    assert rows[0]["N"] == "4"  # a 2x2 grid
    assert int(rows[0]["n_traj"]) == 10


def test_kitaev_lifetime_both_decoders(tmp_path):
    out = tmp_path / "kit.csv"
    cfg = _write_config(
        tmp_path / "kit.json", experiment="kitaev-lifetime", sizes=[3],
        beta=0.8, n_traj=8, t_max=20.0, decoder="both", output=str(out))
    assert main(["run", cfg]) == 0
    rows = _rows(out)
    assert [r["decoder"] for r in rows] == ["matching", "bare"]
    assert all(r["L"] == "3" for r in rows)


def test_szilard_rows_round_trip_floats(tmp_path):
    out = tmp_path / "sz.csv"
    cfg = _write_config(
        tmp_path / "sz.json", experiment="szilard", p_init=[0.0, 0.25],
        beta_E=5.0, ramp_time=[0.0, 50.0], beta=1.0, output=str(out))
    assert main(["run", cfg]) == 0
    rows = _rows(out)
    assert len(rows) == 4
    assert rows[0].keys() == {"p_init", "beta_E", "ramp_time", "work_on",
                              "heat_in", "net_extracted", "violation_flag"}
    for row in rows:
        ledger = szilard_run(5.0, float(row["ramp_time"]), 1.0,
                             float(row["p_init"]))
        # repr-formatted floats parse back to the exact value
        assert float(row["work_on"]) == ledger.work
        assert float(row["net_extracted"]) == ledger.extracted_work
        assert row["violation_flag"] == "0"


def test_cycle_flags_violation_for_stable_memory(tmp_path):
    out = tmp_path / "cyc.csv"
    cfg = _write_config(
        tmp_path / "cyc.json", experiment="cycle", p_init=[0.0, 0.5],
        beta_E=5.0, ramp_time=300.0, beta=1.0, stable=True, output=str(out))
    assert main(["run", cfg]) == 0
    rows = _rows(out)
    assert rows[0]["violation_flag"] == "1"
    assert float(rows[0]["net_extracted"]) > 0.6
    assert rows[1]["violation_flag"] == "0"
    assert float(rows[1]["net_extracted"]) < 0.0


def test_toolkit_check_rows(tmp_path):
    out = tmp_path / "tk.csv"
    cfg = _write_config(tmp_path / "tk.json", experiment="toolkit-check",
                        n_samples=40, output=str(out), seed=2)
    assert main(["run", cfg]) == 0
    rows = _rows(out)
    assert [r["check"] for r in rows] == [
        "cp-contraction", "repetition-distance", "fannes-slack", "first-law"]
    assert all(r["pass"] == "1" for r in rows)


def test_overrides_patch_config(tmp_path):
    cfg, out = _gap_config(tmp_path)
    out2 = tmp_path / "patched.csv"
    assert main(["run", cfg, "--override", "seed=9",
                 "--override", f"output={out2}",
                 "--override", "sizes=[1, 2]"]) == 0
    assert not out.exists()
    manifest = json.loads((tmp_path / "patched.csv.manifest.json").read_text())
    assert manifest["seed"] == 9          # parsed as JSON int
    assert manifest["config"]["sizes"] == [1, 2]
    assert manifest["config"]["output"] == str(out2)  # bare string fallback
    assert manifest["rows"] == 2


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_key_is_named(tmp_path, capsys):
    cfg, _ = _gap_config(tmp_path, banana=1)
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "banana" in err
    assert "gap" in err


def test_missing_required_key_is_named(tmp_path, capsys):
    out = tmp_path / "sz.csv"
    cfg = _write_config(tmp_path / "sz.json", experiment="szilard",
                        p_init=0.0, ramp_time=10.0, output=str(out))
    assert main(["run", cfg]) == 1
    assert "beta_E" in capsys.readouterr().err


def test_unknown_experiment_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path / "x.json", experiment="teleportation",
                        output="x.csv")
    assert main(["run", cfg]) == 1
    assert "teleportation" in capsys.readouterr().err


@pytest.mark.parametrize("config,named", [
    ({"model": "Ising1D", "output": "x.csv"}, "missing required key 'experiment'"),
    ([{"experiment": "gap"}], "config must be a JSON object"),
], ids=["no experiment", "a list"])
def test_config_without_an_experiment_object_is_named(tmp_path, capsys, config, named):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1
    assert named in capsys.readouterr().err


def test_malformed_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    assert main(["run", str(tmp_path / "nope.json")]) == 1


def test_unreadable_config_path_is_a_config_error(tmp_path, capsys):
    # a path through a non-directory must print error:, not a traceback
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory")
    assert main(["run", str(blocker / "cfg.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_override_form(tmp_path, capsys):
    cfg, _ = _gap_config(tmp_path)
    assert main(["run", cfg, "--override", "seednine"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_invalid_parameter_value_exits_one(tmp_path, capsys):
    # a negative trajectory count is a config error, not a crash
    out = tmp_path / "life.csv"
    cfg = _write_config(
        tmp_path / "life.json", experiment="ising-lifetime", model="Ising1D",
        sizes=[4], beta=0.5, n_traj=-3, t_max=10.0, output=str(out))
    assert main(["run", cfg]) == 1
    assert "n_traj" in capsys.readouterr().err


def test_null_decoder_exits_one(tmp_path, capsys):
    out = tmp_path / "kit.csv"
    cfg = _write_config(
        tmp_path / "kit.json", experiment="kitaev-lifetime", sizes=[3],
        beta=0.8, n_traj=4, t_max=5.0, decoder=None, output=str(out))
    assert main(["run", cfg]) == 1
    assert "unknown decoder: None" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_two(tmp_path, capsys):
    cfg, _ = _gap_config(tmp_path, output="/nonexistent-dir/out.csv")
    assert main(["run", cfg]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_nonpositive_workers_rejected(tmp_path, capsys):
    cfg, _ = _gap_config(tmp_path)
    assert main(["run", cfg, "--workers", "0"]) == 1
    assert "workers" in capsys.readouterr().err
    # non-integer counts, booleans included, are config errors too
    for raw in ("two", "2.7", "true", "0"):
        assert main(["run", cfg, "--override", f"workers={raw}"]) == 1
        assert "workers" in capsys.readouterr().err


_SIZED = {
    "gap": dict(model="Ising2D", sizes=[2], beta=1.0),
    "ising-lifetime": dict(model="Ising1D", sizes=[4], beta=0.5, n_traj=2,
                           t_max=1.0),
    "kitaev-lifetime": dict(sizes=[3], beta=0.5, n_traj=2, t_max=1.0),
    "fluctuation": dict(n_periods=[1], period=1.0, e_max=2.0, n_traj=4),
    "toolkit-check": dict(n_samples=2),
    "szilard": dict(p_init=[0.0], beta_E=5.0, ramp_time=[0.0]),
    "cycle": dict(p_init=[0.0], beta_E=5.0, ramp_time=[0.0]),
}


@pytest.mark.parametrize("experiment,key,value", [
    ("gap", "sizes", [3.5]),
    ("gap", "sizes", [True]),
    ("gap", "sizes", 3.5),
    ("gap", "sizes", ["3"]),
    ("ising-lifetime", "sizes", [4.5]),
    ("ising-lifetime", "sizes", [False]),
    ("kitaev-lifetime", "sizes", [3.5]),
    ("kitaev-lifetime", "sizes", [True]),
    ("toolkit-check", "n_samples", 2.5),
    ("toolkit-check", "n_samples", True),
    ("kitaev-lifetime", "mu", 1.7),
    ("fluctuation", "n_periods", [2.5]),
    # out of range
    ("szilard", "beta", 0),
    ("cycle", "beta", -1.0),
    ("gap", "beta", -1),
    ("gap", "seed", -1),
    ("kitaev-lifetime", "seed", -1),
    ("fluctuation", "seed", -1),
    ("kitaev-lifetime", "move_rate", -1.0),
    ("gap", "move_rate", -0.5),
    ("kitaev-lifetime", "mu", 3),
    ("fluctuation", "gamma", 0),
    # not finite (JSON NaN / Infinity)
    ("ising-lifetime", "beta", math.inf),
    ("ising-lifetime", "J", math.nan),
    ("kitaev-lifetime", "beta", math.inf),
    ("kitaev-lifetime", "t_max", math.nan),
    ("gap", "J", math.nan),
    ("gap", "beta", math.inf),
    ("cycle", "beta_E", math.inf),
    ("fluctuation", "period", math.inf),
    ("fluctuation", "beta", -math.inf),
    pytest.param("szilard", "gamma", 10**400, id="szilard-gamma-int-beyond-float"),
    # out of range: a protocol schedule needs beta > 0
    ("fluctuation", "beta", 0),
])
def test_non_integer_sizes_and_samples_rejected(tmp_path, capsys, experiment, key,
                                                value):
    """Sizes and sample counts are not truncated: 3.5 is an error, not L=3.
    Out-of-range values are errors too, named before any work."""
    out = tmp_path / "out.csv"
    cfg = dict(_SIZED[experiment], experiment=experiment, output=str(out))
    cfg[key] = value
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()
    # the same config with an integer runs
    cfg[key] = [2] if isinstance(value, list) else 2
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 0


@pytest.mark.parametrize("experiment,key", [
    ("ising-lifetime", "n_traj"),
    ("fluctuation", "n_traj"),
    ("gap", "seed"),
    ("ising-lifetime", "beta"),
    ("szilard", "beta_E"),
    ("fluctuation", "period"),
    ("fluctuation", "e_max"),
    ("ising-lifetime", "t_max"),
    ("ising-lifetime", "J"),
    ("kitaev-lifetime", "t_max"),
    ("kitaev-lifetime", "move_rate"),
    ("gap", "J"),
    ("gap", "move_rate"),
    ("szilard", "beta"),
    ("szilard", "gamma"),
    ("cycle", "beta"),
    ("cycle", "gamma"),
    ("fluctuation", "beta"),
    ("fluctuation", "gamma"),
])
def test_booleans_are_not_counts_seeds_or_numbers(tmp_path, capsys, experiment, key):
    """``true`` is not 1: it would run one trajectory, seed 1 or beta = 1."""
    out = tmp_path / "out.csv"
    cfg = dict(_SIZED[experiment], experiment=experiment, output=str(out))
    cfg[key] = True
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()
    cfg[key] = 2
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 0


@pytest.mark.parametrize("experiment,key,value", [
    ("ising-lifetime", "t_max", "1"),
    ("kitaev-lifetime", "move_rate", "1.5"),
    ("gap", "J", "2"),
    ("szilard", "gamma", "2"),
    ("fluctuation", "beta", "1"),
    ("szilard", "p_init", ["0.1"]),
    ("cycle", "ramp_time", [True]),
])
def test_numeric_strings_are_not_numbers(tmp_path, capsys, experiment, key, value):
    """``gamma="2"`` is a config error, not gamma = 2."""
    out = tmp_path / "out.csv"
    cfg = dict(_SIZED[experiment], experiment=experiment, output=str(out))
    cfg[key] = value
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()
    cfg[key] = [0] if isinstance(value, list) else 2
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 0


# the experiment work memlab.cli calls (build_model belongs to the check)
_LIBRARY_CALLS = ("first_passage", "kitaev_memory_lifetime", "build_generator",
                  "spectral_gap", "szilard_run", "memory_engine_cycle",
                  "sawtooth_schedule", "entropy_production_samples", "toolkit_sweep")


@pytest.mark.parametrize("experiment,key,value", [
    ("ising-lifetime", "sizes", [16, -3]),
    ("fluctuation", "n_periods", [10, 0]),
    ("szilard", "p_init", [0.0, 1.5]),
    ("szilard", "rates", 5),
    ("kitaev-lifetime", "sizes", [4, 1]),
    ("fluctuation", "e_max", math.inf),
    ("szilard", "ramp_time", [0.0, math.inf]),
])
def test_bad_values_fail_before_any_work(tmp_path, capsys, monkeypatch, experiment,
                                         key, value):
    """A bad later list entry or option stops the run before the first entry runs."""
    calls = []

    def recorder(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise RuntimeError(f"{name} ran before the config was checked")
        return call

    for name in _LIBRARY_CALLS:
        monkeypatch.setattr(f"memlab.cli.{name}", recorder(name))
    out = tmp_path / "out.csv"
    cfg = dict(_SIZED[experiment], experiment=experiment, output=str(out))
    cfg[key] = value
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_integer_json_numbers_are_written_as_floats(tmp_path):
    """Number keys reach the CSV as floats: 0 is written 0.0, as it always was."""
    out = tmp_path / "sz.csv"
    cfg = _write_config(tmp_path / "sz.json", experiment="szilard", p_init=[0, 1],
                        beta_E=5, ramp_time=[0], output=str(out))
    assert main(["run", cfg]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows[0].startswith("0.0,5.0,0.0,")
    assert rows[1].startswith("1.0,5.0,0.0,")
    cfg, out = _gap_config(tmp_path, beta=2)
    assert main(["run", cfg]) == 0
    assert out.read_text().splitlines()[1] == "IsingMeanField,1,2.0,1.0"


def test_readme_key_table_matches_the_schema():
    readme = (SRC.parent / "README.md").read_text()
    table = readme.split("Experiments and their keys", 1)[1].split("\n\n")[1]
    documented = {}
    for line in table.splitlines()[2:]:
        # backticked names per cell, without the parenthesised enum values
        name, required, optional = (re.findall(r"`([^`]+)`", re.sub(r"\(.*?\)", "", cell))
                                    for cell in line.strip().strip("|").split("|"))
        documented[name[0]] = (set(required), set(optional))
    assert documented == {
        name: ({k for k, key in exp.keys.items() if key.default is REQUIRED},
               {k for k, key in exp.keys.items() if key.default is not REQUIRED})
        for name, exp in EXPERIMENTS.items()}
    listed = re.search(r"List-valued keys \(([^)]*)\)", readme).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == {
        k for exp in EXPERIMENTS.values() for k, key in exp.keys.items() if key.listed}


def test_stable_must_be_a_json_boolean(tmp_path, capsys):
    # "false" is a truthy string: read as bool it ran the stable cycle
    out = tmp_path / "cyc.csv"
    cfg = _write_config(
        tmp_path / "cyc.json", experiment="cycle", p_init=[0.1], beta_E=5.0,
        ramp_time=400.0, beta=1.0, stable=True, output=str(out))
    for raw in ('"false"', "0", "null"):
        assert main(["run", cfg, "--override", f"stable={raw}"]) == 1
        assert "'stable'" in capsys.readouterr().err
        assert not out.exists()
    assert main(["run", cfg, "--override", "stable=false"]) == 0
    row = _rows(out)[0]
    assert row["violation_flag"] == "0"
    assert float(row["net_extracted"]) < 0.0


def test_ising_lifetime_rejects_the_toric_code(tmp_path, capsys):
    cfg = dict(_SIZED["ising-lifetime"], experiment="ising-lifetime",
               model="Kitaev2D", output=str(tmp_path / "out.csv"))
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 1
    assert "'model'" in capsys.readouterr().err


def test_t_max_may_be_infinity(tmp_path):
    """``t_max`` is the one number key that takes Infinity (its default)."""
    out = tmp_path / "out.csv"
    cfg = dict(_SIZED["ising-lifetime"], experiment="ising-lifetime", output=str(out))
    assert main(["run", _write_config(tmp_path / "c.json", **cfg),
                 "--override", "t_max=Infinity"]) == 0
    assert _rows(out)[0]["censored"] == "0"


@pytest.mark.parametrize("cfg,limit", [
    (dict(experiment="gap", model="Ising1D", sizes=[12, 21], beta=1.0), "2^20"),
    (dict(experiment="szilard", p_init=[0.0], beta_E=5.0, ramp_time=[10.0, 1e9]),
     "panels"),
])
def test_run_time_limits_exit_one_without_a_csv(tmp_path, capsys, cfg, limit):
    """These limits surface only at run time, after the earlier rows have run."""
    out = tmp_path / "out.csv"
    assert main(["run", _write_config(tmp_path / "c.json", **cfg, output=str(out))]) == 1
    assert limit in capsys.readouterr().err
    assert not out.exists()


def test_kitaev_lifetime_at_large_beta_runs_censored(tmp_path):
    out = tmp_path / "out.csv"
    cfg = dict(_SIZED["kitaev-lifetime"], experiment="kitaev-lifetime", beta=400,
               decoder="both", output=str(out))
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 0
    rows = _rows(out)
    assert [(r["decoder"], r["censored"], r["mean_lifetime"]) for r in rows] == [
        ("matching", "2", "1.0"), ("bare", "2", "1.0")]


def test_kitaev_lifetime_without_probe_or_horizon_fails(tmp_path, capsys):
    # beta = 360 with the default t_max = Infinity: no event comes in finite time
    out = tmp_path / "out.csv"
    cfg = dict(_SIZED["kitaev-lifetime"], experiment="kitaev-lifetime", beta=360,
               output=str(out))
    del cfg["t_max"]
    assert main(["run", _write_config(tmp_path / "c.json", **cfg)]) == 2
    assert "absorbing state" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("beta", True, "key 'beta' must be a finite real number >= 0, got True"),
    ("J", "2", "key 'J' must be a finite real number, got '2'"),
    ("sizes", [3.5], "key 'sizes' must be an integer of at least 1, got 3.5"),
])
def test_number_keys_fail_with_the_library_rule(tmp_path, capsys, key, value, message):
    """A number or count key fails as the library does, named as the key."""
    cfg, _ = _gap_config(tmp_path, **{key: value})
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.skipif(shutil.which("memlab") is None,
                    reason="console script not on PATH")
def test_console_entry_point(tmp_path):
    cfg, out = _gap_config(tmp_path)
    proc = subprocess.run(["memlab", "run", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_python_dash_m_entry_point(tmp_path):
    """``python -m memlab`` reaches the same main; it needs no console script."""
    cfg, out = _gap_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "memlab", "run", cfg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {out}\n"
    assert out.read_text().splitlines()[0] == "model,size,beta,gap"
    bad = subprocess.run([sys.executable, "-m", "memlab", "run", cfg,
                          "--override", "beta=true"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert bad.returncode == 1
    assert "'beta'" in bad.stderr
