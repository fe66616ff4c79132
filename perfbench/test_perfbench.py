"""Tests of the benchmark itself: checks reject corrupted outputs, the tracer
leaves memlab as it found it, and BENCHMARK.json matches the code.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import memlab  # noqa: E402
import memlab.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# --- checks reject corrupted outputs ---------------------------------------


def _gap_rows(values):
    return [{"model": "Kitaev2D", "size": str(L), "beta": "1.0", "gap": repr(g)}
            for L, g in values.items()]


def test_gap_check_accepts_anchors_and_rejects_an_offset():
    config = {"model": "Kitaev2D", "sizes": [2, 3]}
    good = {2: 0.6353412217602608, 3: 0.8611141299291513}
    assert checks.check_gap(_gap_rows(good), config) == []
    bad = {**good, 3: good[3] + 1e-4}
    assert checks.check_gap(_gap_rows(bad), config)


def test_ring_gap_check_rejects_disagreeing_sizes():
    config = {"model": "Ising1D", "sizes": [11, 12]}
    rows = [{"size": "11", "gap": "0.03597241992418331"},
            {"size": "12", "gap": "0.03597241992418479"}]
    assert checks.check_gap(rows, config) == []
    rows[1]["gap"] = "0.0359734"
    assert checks.check_gap(rows, config)


def test_mean_field_oracle_matches_simulation():
    model = memlab.build_model("IsingMeanField", N=8)
    res = memlab.first_passage(model, memlab.SimulationParams(1.35, 5000.0, 2000),
                               seed=3)
    ref = checks.mean_field_mfpt(8, 1.35, 1.0)
    assert abs(res.mean - ref) <= 4 * res.stderr


def test_ising_lifetime_check_rejects_offset_mean_and_censoring():
    ref = checks.mean_field_mfpt(16, 1.35, 1.0)
    config = {"sizes": [16]}

    def row(mean, censored=0):
        return [{"model": "IsingMeanField", "N": "16", "beta": "1.35", "J": "1.0",
                 "censored": str(censored), "mean_lifetime": repr(mean),
                 "stderr": "0.5"}]

    assert checks.check_ising_lifetime(row(ref + 0.5), config) == []
    assert checks.check_ising_lifetime(row(ref + 2.5), config)
    assert checks.check_ising_lifetime(row(ref, censored=1), config)


def _kitaev_rows(matching, bare, censored=0):
    return [{"L": "8", "decoder": d, "n_traj": "12", "censored": str(censored),
             "mean_lifetime": repr(m)} for d, m in (("matching", matching), ("bare", bare))]


def test_kitaev_check_rejects_censoring_and_missing_rows():
    config = {"sizes": [8]}
    assert checks.check_kitaev_lifetime(_kitaev_rows(1.3, 0.9), config) == []
    assert checks.check_kitaev_lifetime(_kitaev_rows(1.3, 0.9, censored=1), config)
    assert checks.check_kitaev_lifetime(_kitaev_rows(1.3, 0.9)[:1], config)


def test_pooled_kitaev_check_rejects_matching_not_above_bare():
    lucky = _kitaev_rows(0.8, 1.0)  # one small ensemble may lose by chance
    assert checks.check_matching_beats_bare(lucky + _kitaev_rows(1.4, 0.8), {}) == []
    assert checks.check_matching_beats_bare(lucky + _kitaev_rows(1.0, 0.9), {})
    assert checks.check_matching_beats_bare([], {})


def test_ramp_check_rejects_first_law_residual_and_slow_ramp_offset():
    config = {"experiment": "szilard", "beta_E": 5.0, "beta": 1.0}
    target = 0.6864319

    def rows(net, residual=0.0):
        return [{"p_init": "0.0", "ramp_time": "400.0", "work_on": repr(-net),
                 "heat_in": repr(net + residual), "net_extracted": repr(net)}]

    assert checks.check_ramp(rows(0.6802208915195002), config) == []
    assert checks.check_ramp(rows(target * 0.97), config)
    assert checks.check_ramp(rows(0.6802208915195002, residual=1e-6), config)


def test_ift_standard_error_matches_sampled_spread():
    sched = memlab.sawtooth_schedule(10, 1.0, 2.0)
    res = memlab.entropy_production_samples(sched, 4000, seed=1)
    se = math.sqrt((checks.ift_second_moment(10, 1.0, 2.0) - 1.0) / 4000)
    assert 0.6 < res.ift_stderr / se < 1.6


def test_ift_check_takes_the_median_and_rejects_a_ten_sigma_estimate():
    config = {"period": 1.0, "e_max": 2.0, "n_periods": [10], "n_traj": 500}
    se = math.sqrt((checks.ift_second_moment(10, 1.0, 2.0) - 1.0) / 500)

    def rows(*ifts):
        return [{"duration": "10.0", "n_traj": "500", "ift_estimate": repr(i)}
                for i in ifts]

    assert checks.check_fluctuation(rows(1.0), config) == []
    assert checks.check_fluctuation(rows(1.0) + rows(1.0), config)
    assert checks.check_ift_median(rows(1.0 + se, 1.0 - se, 1.0 + 9 * se), config) == []
    assert checks.check_ift_median(rows(1.0 - 10 * se), config)
    assert checks.check_ift_median(rows(1.0 + 10 * se, 1.0 + 10 * se, 1.0), config)


def test_toolkit_check_rejects_a_failed_row():
    rows = [{"check": "first-law", "value": "1e-16", "threshold": "1e-08", "pass": "1"}]
    assert checks.check_toolkit(rows, {}) == []
    rows.append({"check": "fannes-slack", "value": "-1", "threshold": "-1e-10",
                 "pass": "0"})
    assert checks.check_toolkit(rows, {})


def _syndrome_of(L, edges, sector):
    return memlab.syndrome(memlab.build_model("Kitaev2D", L=L), edges, sector)


def test_decode_check_rejects_a_correction_with_the_wrong_syndrome():
    syn = memlab.Syndrome(frozenset({0, 5, 9, 14}), "plaquette")
    corr = memlab.decode_matching(syn, 4)
    assert checks.check_decodes([("0:0", syn, 4, corr)], _syndrome_of) == {}
    broken = memlab.Correction(sorted(corr.edges)[1:], 4)
    assert "0:0" in checks.check_decodes([("0:0", syn, 4, broken)], _syndrome_of)


@pytest.mark.parametrize("kind,size", [("IsingMeanField", 8), ("Kitaev2D", 4)])
def test_record_check_rejects_corrupted_events_and_probes(kind, size):
    if kind == "Kitaev2D":
        model = memlab.build_model(kind, L=size)
    else:
        model = memlab.build_model(kind, N=size)
    params = memlab.SimulationParams(1.0, 40.0, probe_cadence=1.0)
    rec = memlab.simulate_trajectory(model, params, seed=2)
    assert len(rec.events) > 10
    assert checks.check_record(model, rec, 40.0, 1.0) == []

    t, ev = rec.events[3]
    other = (ev.site + 1) % model.N
    wrong_site = memlab.TrajectoryRecord(
        rec.seed, rec.events[:3] + [(t, memlab.EventClass(ev.tag, other, ev.rate))]
        + rec.events[4:], rec.probes, rec.final_state)
    assert checks.check_record(model, wrong_site, 40.0, 1.0)

    probes = list(rec.probes)
    probes[5] = (probes[5][0], probes[5][1] + 2.0)
    wrong_probe = memlab.TrajectoryRecord(rec.seed, rec.events, probes, rec.final_state)
    assert checks.check_record(model, wrong_probe, 40.0, 1.0)


# --- tracer ----------------------------------------------------------------


def _memlab_attributes():
    mods = [m for name, m in sys.modules.items()
            if name == "memlab" or name.startswith("memlab.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_restores_module_attributes_even_after_an_error():
    before = _memlab_attributes()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer() as tracer:
            assert memlab.decoder.decode_matching is not before[
                ("memlab.decoder", "decode_matching")]
            tracer.span("x")  # unused context manager: must not leak state
            1 / 0
    after = _memlab_attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_pass_matches_untraced_and_checks_decodes(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads._TEMPLATES, "tiny", lambda: [
        workloads.Operation("kitaev", "cli", {
            "experiment": "kitaev-lifetime", "sizes": [8], "beta": 1.5,
            "n_traj": 4, "t_max": 100.0, "decoder": "both"}),
        workloads.Operation("record/Ising1D", "record", {
            "model": "Ising1D", "size": 8, "beta": 1.0, "t_max": 20.0})])
    plain = worker.Runner("tiny", 1, 0, str(tmp_path / "a")).run_pass()
    runner = worker.Runner("tiny", 1, 0, str(tmp_path / "b"))
    with spans.Tracer() as tracer:
        traced = runner.run_pass(tracer)
    # the pooled matching-vs-bare check may fail on 4 trajectories; nothing else
    assert {f["op"] for f in plain["failures"]} <= {"kitaev-lifetime"}
    assert {f["op"] for f in traced["failures"]} <= {"kitaev-lifetime"}
    assert [fp["sha256"] for fp in plain["fingerprints"].values()] == \
        [fp["sha256"] for fp in traced["fingerprints"].values()]
    assert traced["fingerprints"]["kitaev"]["decode_calls"] > 0
    assert plain["fingerprints"]["record/Ising1D"]["events"] > 0
    assert len(plain["op_s"]) == len(plain["op_wall_s"]) == plain["attempted"] == 2
    assert {s.op for s in tracer.spans} == {"0", "1"}


def test_scale_is_one_at_the_reference_speed():
    assert speed.scale(speed.REF_S) == 1.0
    assert speed.scale(2 * speed.REF_S) == 0.5
    assert 0 < speed.reference_s() < 0.1


def test_traced_pass_records_layer_spans(tmp_path):
    tracer = spans.Tracer()
    with tracer:
        tracer.op = "0:0"
        with tracer.span("cli.run", experiment="kitaev-lifetime"):
            memlab.cli.run({"experiment": "kitaev-lifetime", "sizes": [4],
                            "beta": 1.0, "n_traj": 3, "t_max": 50.0,
                            "decoder": "both", "seed": 1, "workers": 1,
                            "output": str(tmp_path / "k.csv")})
        tracer.op = "0:1"
        with tracer.span("cli.run", experiment="gap"):
            memlab.cli.run({"experiment": "gap", "model": "Kitaev2D", "sizes": [2],
                            "beta": 1.0, "output": str(tmp_path / "g.csv")})
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "dynamics.kitaev_lifetime", "decoder.decode",
            "lattice.build_model", "exact.build_generator",
            "exact.spectral_gap"} <= names
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "decoder.decode":
            assert by_id[s.parent].name == "dynamics.kitaev_lifetime"
            assert s.op == "0:0"
    assert tracer.decodes and checks.check_decodes(tracer.decodes, _syndrome_of) == {}

    m = spans.layer_metrics(tracer.spans)
    assert set(m) == {name for name, _, _ in spans.METRIC_SPECS} - {"trace.overhead_share"}
    assert m["decoder.decode.calls"] == len(tracer.decodes)
    assert m["exact.spectral_gap.s.Kitaev2D-L2"] > 0
    assert 0 < m["cli.self_s.gap"] < m["cli.run.s.gap"]


# --- the benchmark definition ------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(s) for s in spans.METRIC_SPECS]


def test_operations_are_deterministic_in_the_seed():
    for w in workloads.WHY:
        a = workloads.operations(w, 7, 1, "out")
        assert [o.config for o in a] == [o.config for o in workloads.operations(w, 7, 1, "out")]
        assert all(o.config.get("workers", 1) == 1 for o in a)
        assert len({o.name for o in a}) == len(a)
    seeds = {o.config["seed"] for k in range(3)
             for o in workloads.operations("ising-passage", 7, k, "out")}
    assert len(seeds) == 3 * len(workloads.operations("ising-passage", 7, 0, "out"))


def test_run_fails_without_memlab_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "toric-memory", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_decode_buckets_cover_every_even_count():
    covered = [k for k in range(0, 40, 2)
               if any(lo <= k <= hi for _, lo, hi in spans.DECODE_BUCKETS)]
    assert covered == list(range(0, 40, 2))
    assert np.isinf(spans.DECODE_BUCKETS[-1][2])
