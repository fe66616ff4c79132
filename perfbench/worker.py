#!/usr/bin/env python3
"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --pass K --trace 0|1 --result PATH

``run.py`` starts one worker per pass, so that every pass pays the import
users pay on each ``memlab run`` and no cache the program keeps in memory
carries over from one pass to the next.  Loading this module imports memlab
from ``src/`` before anything else (numpy included), timed.  The worker
then runs the operation list of pass K once (traced with ``--trace 1``),
checks every output and writes one JSON object to PATH:

  import_s      wall time of ``import memlab``
  op_s          wall time of each operation, in list order, normalised to
                the reference machine speed (``speed.py``) unless it is
                native-bound (``workloads.AS_MEASURED``)
  op_wall_s     wall time of each operation, as measured
  peak_rss_mb   peak resident memory of this process
  attempted     operations run
  failures      [{"op", "message"}] of operations that raised or failed a check
  fingerprints  {op: {"sha256", "events", "decode_calls"}}
  layer         the per-layer metrics of the pass (traced only)

A traced worker also writes its spans to PATH with ``.json`` replaced by
``-spans.jsonl``.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)
_start = time.perf_counter()
import memlab  # noqa: E402  (timed: the set-up users pay on every run)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import memlab.cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


class Runner:
    """Executes one pass of a workload and checks its outputs."""

    def __init__(self, workload: str, seed: int, pass_index: int, out_dir: str):
        self.ops = workloads.operations(workload, seed, pass_index, out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self._kitaev_models = {}

    @staticmethod
    def _execute(op, tracer):
        if op.kind == "cli":
            with tracer.span("cli.run", experiment=op.config["experiment"]) \
                    if tracer else nullcontext():
                return memlab.cli.run(dict(op.config))[0]
        cfg = op.config
        with tracer.span("dynamics.record", kind=cfg["model"]) \
                if tracer else nullcontext() as span:
            if cfg["model"] in ("Ising2D", "Kitaev2D"):
                model = memlab.lattice.build_model(cfg["model"], L=cfg["size"])
            else:
                model = memlab.lattice.build_model(cfg["model"], N=cfg["size"])
            params = memlab.dynamics.SimulationParams(
                beta=cfg["beta"], t_max=cfg["t_max"],
                probe_cadence=workloads.RECORD_CADENCE)
            record = memlab.dynamics.simulate_trajectory(model, params, seed=cfg["seed"])
            if span is not None:
                span.attrs["events"] = len(record.events)
        return model, record

    def run_pass(self, tracer=None) -> dict:
        """Time each operation, then check the outputs; returns the result
        fields op_s, op_wall_s, attempted, failures and fingerprints."""
        outputs, op_s, op_wall_s, scales = [], [], [], []
        for j, op in enumerate(self.ops):
            if tracer:
                tracer.op = str(j)
            ref_before = speed.reference_s()
            start = time.perf_counter()
            try:
                outputs.append((self._execute(op, tracer), None))
            except Exception:  # an operation that raises counts as failed
                outputs.append((None, traceback.format_exc()))
            wall = time.perf_counter() - start
            ref = (ref_before + speed.reference_s()) / 2.0
            native = op.config.get("experiment") in workloads.AS_MEASURED
            scales.append(1.0 if native else speed.scale(ref))
            op_wall_s.append(wall)
            op_s.append(wall * scales[-1])
        if tracer:
            for s in tracer.spans:
                s.scale = scales[int(s.op)]

        failures, prints, pooled = [], {}, {}
        for op, (out, error) in zip(self.ops, outputs):
            for msg in self._inspect(op, out, error, prints, pooled):
                failures.append({"op": op.name, "message": msg})
        for experiment, (rows, config) in pooled.items():
            for msg in checks.POOLED_CHECKS[experiment](rows, config):
                failures.append({"op": experiment, "message": msg})
        if tracer:
            calls = Counter(op_id for op_id, *_ in tracer.decodes)
            for j, n in calls.items():
                prints.setdefault(self.ops[int(j)].name, {})["decode_calls"] = n
            for j, messages in checks.check_decodes(tracer.decodes,
                                                    self._syndrome).items():
                failures += [{"op": self.ops[int(j)].name, "message": msg}
                             for msg in messages]
        return {"op_s": op_s, "op_wall_s": op_wall_s, "attempted": len(self.ops),
                "failures": failures, "fingerprints": prints}

    def _inspect(self, op, out, error, prints, pooled):
        """Failure messages of one output; records its fingerprint if it ran."""
        if error:
            return [error]
        try:
            prints[op.name] = self._fingerprint(op, out)
            if op.kind == "record":
                model, record = out
                return checks.check_record(model, record, op.config["t_max"],
                                           workloads.RECORD_CADENCE)
            experiment = op.config["experiment"]
            if experiment in checks.POOLED_CHECKS:
                pooled.setdefault(experiment, ([], op.config))[0].extend(
                    checks.read_rows(out))
            return checks.check_csv(out, op.config)
        except Exception:  # a malformed output can break a check
            return [traceback.format_exc()]

    @staticmethod
    def _fingerprint(op, out):
        if op.kind == "cli":
            with open(out, "rb") as fh:
                return {"sha256": hashlib.sha256(fh.read()).hexdigest()}
        _, record = out
        body = repr((record.events, record.probes)).encode()
        return {"sha256": hashlib.sha256(body).hexdigest(),
                "events": len(record.events)}

    def _syndrome(self, L, edges, sector):
        if L not in self._kitaev_models:
            self._kitaev_models[L] = memlab.lattice.build_model("Kitaev2D", L=L)
        return memlab.lattice.syndrome(self._kitaev_models[L], edges, sector)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one pass of a memlab workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(memlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported memlab from {memlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(os.path.dirname(args.result), args.workload)
    runner = Runner(args.workload, args.seed, args.pass_index, out_dir)
    tracer = Tracer() if args.trace else None
    with tracer or nullcontext():
        result = runner.run_pass(tracer)
    result["import_s"] = IMPORT_S
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layer"] = layer_metrics(tracer.spans)
        with open(args.result.removesuffix(".json") + "-spans.jsonl", "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
