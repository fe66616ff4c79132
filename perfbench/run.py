#!/usr/bin/env python3
"""memlab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a memlab checkout; the program is imported from
``src/`` of that checkout.  A run repeats the workload's operation list
(``workloads.py``) in passes, one fresh interpreter per pass
(``worker.py``), until ``--seconds`` are used, with at least ``MIN_PASSES``
passes; pass ``k`` makes its inputs from ``(seed, k)``.  Every output is
checked (``checks.py``).

Operation times are normalised to a fixed machine speed (``speed.py``): each
operation is bracketed by a reference kernel, so that load from other
tenants of a shared machine moves them less.  Native-bound operations
(``workloads.AS_MEASURED``) stay as measured.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over the passes of the wall time of ``import memlab``
               in the pass's fresh interpreter
  wall_s       mean over the passes of the operation list's time: the
               passes differ in their inputs, and with 3-5 of them the mean
               spreads less than the median from seed to seed
  peak_rss_mb  median over the passes of the peak resident memory of the
               process that runs the operation list

``--trace 1`` runs each pass twice, untraced and traced (``spans.py``), in
alternating order, and reports the per-layer metrics as medians over the
traced passes, plus ``trace.overhead_share`` (traced / untraced wall - 1).
The two runs of a pass must give the same outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (provenance,
per-pass times, check messages, output fingerprints, spans) go to
``perfbench/out/``.  Without ``src/memlab`` the script exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from spans import METRIC_SPECS, UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 3
MIN_TRACED_PASSES = 2   # each runs twice, untraced and traced
TIME_CAP_S = 165.0      # no pass may end past this, so the run exits within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _env():
    # Only the checkout's sources may be imported as memlab.  One BLAS
    # thread, like workers=1: on two shared cores a second thread measures
    # the host's scheduler (the Kitaev2D L=3 gap took 4.2-4.9 s on two
    # threads while both cores were free, and up to 9.9 s when one was not;
    # on one thread, 4.5-6.1 s).
    return dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1")


def provenance(seed: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = version(pkg)
        except PackageNotFoundError:
            versions[pkg] = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    # the ceiling keeps git from reporting a repository that encloses a
    # checkout which is not one itself
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                timeout=30, capture_output=True,
                                text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "versions": versions,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


class Passes:
    """Starts the workers of one run and collects their results."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.stem = os.path.join(OUT, f"{workload}-seed{seed}")
        self.plain = []
        self.traced = []

    def _worker(self, path: str, args: list) -> dict:
        if os.path.exists(path):
            os.remove(path)
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            _die("no time left for another pass")
        proc = subprocess.run([sys.executable, WORKER, "--result", path] + args,
                              env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0 or not os.path.exists(path):
            _die(f"worker exited with code {proc.returncode}: "
                 f"{proc.stderr.strip()[-2000:]}")
        with open(path) as fh:
            return json.load(fh)

    def run(self, k: int, traced: bool):
        result = self._worker(
            f"{self.stem}-trace{int(traced)}-pass{k}.json",
            ["--workload", self.workload, "--seed", str(self.seed), "--pass", str(k),
             "--trace", str(int(traced))])
        (self.traced if traced else self.plain).append(result)

    def failures(self) -> list:
        """Check failures of every pass, plus outputs of a traced pass that
        differ from the untraced run of the same pass."""
        out = []
        for traced, results in ((False, self.plain), (True, self.traced)):
            for k, res in enumerate(results):
                out += [dict(f, k=k, traced=traced) for f in res["failures"]]
        for k, (plain, traced) in enumerate(zip(self.plain, self.traced)):
            for name, fp in traced["fingerprints"].items():
                if plain["fingerprints"].get(name, {}).get("sha256") != fp["sha256"]:
                    out.append({"op": name, "k": k, "traced": True,
                                "message": "traced output differs from untraced"})
        return out


def measure(passes: Passes, seconds: float, trace: bool):
    start = time.perf_counter()
    k = 0
    while True:
        if not trace:
            passes.run(k, False)
        else:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                passes.run(k, traced)
        k += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / k
        if (k >= (MIN_TRACED_PASSES if trace else MIN_PASSES) and next_end > seconds) or \
                start + next_end > passes.deadline:
            return


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description="memlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "memlab", "__init__.py")):
        _die(f"no memlab sources under {SRC}; run from a memlab checkout")
    os.makedirs(OUT, exist_ok=True)

    passes = Passes(args.workload, args.seed, t0 + TIME_CAP_S)
    measure(passes, args.seconds, bool(args.trace))

    if args.trace:
        values = {name: statistics.median(r["layer"][name] for r in passes.traced)
                  for name, _, _ in METRIC_SPECS if name != "trace.overhead_share"}
        values["trace.overhead_share"] = statistics.median(
            sum(t["op_s"]) / sum(u["op_s"]) - 1.0
            for t, u in zip(passes.traced, passes.plain))
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name, _, _ in METRIC_SPECS}
    else:
        values = {
            "setup_s": statistics.median(r["import_s"] for r in passes.plain),
            "wall_s": statistics.mean(sum(r["op_s"]) for r in passes.plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes.plain),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    failures = passes.failures()
    attempted = sum(r["attempted"] for r in passes.plain + passes.traced)
    failed = len({(f["k"], f["traced"], f["op"]) for f in failures})
    detail = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "passes": passes.plain,
        "traced_passes": passes.traced,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    with open(f"{passes.stem}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes.plain)} passes, wall s "
          f"{[round(sum(r['op_s']), 3) for r in passes.plain]}, as measured "
          f"{[round(sum(r['op_wall_s']), 3) for r in passes.plain]}")
    print("provenance " + json.dumps(detail["provenance"]))
    for name, fp in (passes.traced or passes.plain)[0]["fingerprints"].items():
        print(f"fingerprint pass0 {name} "
              + " ".join(f"{k} {v}" for k, v in fp.items()))
    for f in failures:
        print(f"FAILED pass {f['k']} {f['op']}"
              f"{' (traced)' if f['traced'] else ''}: "
              f"{f['message'].strip().splitlines()[-1]}")
    # failed_share is not in BENCHMARK.json: it reads 0 on a correct program,
    # and the result line carries the same count as "failed"
    print(f"failed_share {failed / attempted:.6g} share "
          f"({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
