"""Span tracing from outside the program, and the per-layer metrics.

A traced pass replaces the public names that callers look up at call time
with wrappers that record a span (name, start, end, process CPU time, parent
span, operation id, attributes) and then call the original:

- every function of another memlab module that ``memlab.cli`` imported,
  which covers each layer call the experiments make;
- ``memlab.decoder.decode_matching``, which ``dynamics`` calls through the
  module;
- ``memlab.thermo.integrate_master`` and ``memlab.thermo.szilard_run``;
- ``memlab.dynamics.build_model`` and ``memlab.lattice.build_model``.

Spans stay in memory; the caller writes them out at the end of the pass.
``Tracer.uninstall`` puts every original back.  Untraced passes never touch
the modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# span names that differ from "<module>.<function>"
_RENAMES = {
    "dynamics.kitaev_memory_lifetime": "dynamics.kitaev_lifetime",
    "thermo.entropy_production_samples": "thermo.entropy_production",
    "decoder.decode_matching": "decoder.decode",
}

# (module, attribute) wrapped in addition to memlab.cli's imports
_EXTRA_TARGETS = (
    ("memlab.decoder", "decode_matching"),
    ("memlab.thermo", "integrate_master"),
    ("memlab.thermo", "szilard_run"),
    ("memlab.dynamics", "build_model"),
    ("memlab.lattice", "build_model"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    scale: float = 1.0      # machine-speed factor of the span's operation
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def duration(self) -> float:
        """Wall time normalised to the reference machine speed (speed.py)."""
        return self.wall * self.scale


def _size_key(kind: str, size: int) -> str:
    return f"{kind}-{'L' if kind == 'Kitaev2D' else 'N'}{size}"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _attrs_first_passage(args, kwargs):
    model, params = args[0], _arg(args, kwargs, 1, "params")
    return {"kind": model.kind, "n_traj": params.n_traj}


def _attrs_kitaev_lifetime(args, kwargs):
    params = _arg(args, kwargs, 1, "params")
    return {"L": int(_arg(args, kwargs, 0, "L")), "n_traj": params.n_traj,
            "decoder": str(_arg(args, kwargs, 2, "decoder", "matching"))}


def _attrs_build_generator(args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    size = model.L if model.kind == "Kitaev2D" else model.N
    return {"key": _size_key(model.kind, size)}


def _attrs_spectral_gap(args, kwargs):
    G = _arg(args, kwargs, 0, "G")
    return {"key": _size_key(G.kind, G.size)}


def _attrs_entropy_production(args, kwargs):
    schedule = _arg(args, kwargs, 0, "schedule")
    return {"periods": len(schedule.segments) // 2,
            "n_traj": int(_arg(args, kwargs, 1, "n_traj"))}


def _attrs_decode(args, kwargs):
    return {"k": len(_arg(args, kwargs, 0, "syn").anyons)}


_ATTRS = {
    "dynamics.first_passage": _attrs_first_passage,
    "dynamics.kitaev_lifetime": _attrs_kitaev_lifetime,
    "exact.build_generator": _attrs_build_generator,
    "exact.spectral_gap": _attrs_spectral_gap,
    "thermo.entropy_production": _attrs_entropy_production,
    "decoder.decode": _attrs_decode,
}


def span_name(fn) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return _RENAMES.get(name, name)


def targets():
    """(module, attribute) pairs a traced pass wraps."""
    cli = importlib.import_module("memlab.cli")
    found = [(cli, attr) for attr, value in sorted(vars(cli).items())
             if inspect.isfunction(value)
             and value.__module__.startswith("memlab.")
             and value.__module__ != "memlab.cli"]
    for mod_name, attr in _EXTRA_TARGETS:
        mod = importlib.import_module(mod_name)
        if inspect.isfunction(getattr(mod, attr, None)):
            found.append((mod, attr))
    return found


class Tracer:
    """Records spans around layer calls while installed."""

    def __init__(self):
        self.spans = []
        self.decodes = []   # (op id, Syndrome, L, Correction) for the check
        self.op = ""
        self._stack = []
        self._saved = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.op, attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.cpu = time.process_time()
        s.start = time.perf_counter()
        return s

    def close(self, s: Span):
        s.end = time.perf_counter()
        s.cpu = time.process_time() - s.cpu
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, fn):
        name = span_name(fn)
        attrs_of = _ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer.open(name, **(attrs_of(args, kwargs) if attrs_of else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if name == "decoder.decode":
                s.attrs["method"] = result.method
                tracer.decodes.append((tracer.op, _arg(args, kwargs, 0, "syn"),
                                       _arg(args, kwargs, 1, "L"), result))
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for mod, attr in targets():
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def records(self):
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics

FP_KINDS = ("IsingMeanField", "Ising1D", "Ising2D")
RECORD_KINDS = ("IsingMeanField", "Ising1D", "Ising2D", "Kitaev2D")
KITAEV_SIZES = (8, 16)
DECODE_BUCKETS = (("k0-6", 0, 6), ("k8-10", 8, 10), ("k12", 12, 12),
                  ("k14up", 14, math.inf))
GENERATOR_KEYS = ("Kitaev2D-L3", "Ising1D-N11", "Ising1D-N12")
GAP_KEYS = ("Kitaev2D-L2", "Kitaev2D-L3", "Ising1D-N11", "Ising1D-N12")
EP_PERIODS = (10, 20, 40)
QTOOLKIT_FUNCTIONS = ("apply_channel", "fannes_check", "trace_distance",
                      "random_density", "random_channel")
EXPERIMENTS = ("ising-lifetime", "kitaev-lifetime", "gap", "szilard", "cycle",
               "fluctuation", "toolkit-check")


def _metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [("lattice.build_model.s", "s", "lower"),
             ("lattice.build_model.calls", "count", "lower")]
    specs += [(f"dynamics.first_passage.ms_per_traj.{k}", "ms", "lower")
              for k in FP_KINDS]
    specs += [(f"dynamics.record.us_per_event.{k}", "us", "lower")
              for k in RECORD_KINDS]
    specs.append(("dynamics.record.events", "count", "lower"))
    specs += [(f"dynamics.kitaev_lifetime.self_s.L{L}", "s", "lower")
              for L in KITAEV_SIZES]
    specs += [(f"dynamics.kitaev_lifetime.s.bare.L{L}", "s", "lower")
              for L in KITAEV_SIZES]
    specs += [("decoder.decode.calls", "count", "lower"),
              ("decoder.decode.busy_s", "s", "lower")]
    specs += [(f"decoder.decode.us_per_call.{b}", "us", "lower")
              for b, _, _ in DECODE_BUCKETS]
    specs += [("decoder.greedy_share", "share", "lower"),
              ("decoder.max_anyons", "count", "lower")]
    specs += [(f"exact.build_generator.s.{k}", "s", "lower") for k in GENERATOR_KEYS]
    specs += [(f"exact.spectral_gap.s.{k}", "s", "lower") for k in GAP_KEYS]
    specs += [("exact.spectral_gap.cpu_over_wall.Kitaev2D-L3", "ratio", "higher"),
              ("exact.integrate_master.calls", "count", "lower"),
              ("exact.integrate_master.ms_per_call", "ms", "lower"),
              ("thermo.szilard_run.ms_per_stroke", "ms", "lower"),
              ("thermo.memory_engine_cycle.ms_per_cycle", "ms", "lower")]
    specs += [(f"thermo.entropy_production.us_per_traj.P{p}", "us", "lower")
              for p in EP_PERIODS]
    specs += [(f"qtoolkit.{f}.us_per_call", "us", "lower") for f in QTOOLKIT_FUNCTIONS]
    specs.append(("qtoolkit.calls", "count", "lower"))
    specs += [(f"cli.run.s.{e}", "s", "lower") for e in EXPERIMENTS]
    specs += [(f"cli.self_s.{e}", "s", "lower") for e in EXPERIMENTS]
    specs.append(("trace.overhead_share", "share", "lower"))
    return specs


METRIC_SPECS = _metric_specs()
UNITS = {name: unit for name, unit, _ in METRIC_SPECS}


def _per(total: float, count: int, scale: float) -> float:
    """total / count * scale, and 0 where the layer did no work."""
    return total / count * scale if count else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (every name, 0 where unused).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so that is the part of the
    interval no child covers.
    """
    children = defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent] += s.duration

    def self_time(s):
        return s.duration - children[s.id]

    def total(name, pick=lambda s: True, f=lambda s: s.duration):
        return sum(f(s) for s in by_name[name] if pick(s))

    m = {}
    builds = by_name["lattice.build_model"]
    m["lattice.build_model.s"] = total("lattice.build_model")
    m["lattice.build_model.calls"] = len(builds)

    for k in FP_KINDS:
        picked = [s for s in by_name["dynamics.first_passage"] if s.attrs["kind"] == k]
        m[f"dynamics.first_passage.ms_per_traj.{k}"] = _per(
            sum(s.duration for s in picked), sum(s.attrs["n_traj"] for s in picked), 1e3)
    records = by_name["dynamics.record"]
    for k in RECORD_KINDS:
        picked = [s for s in records if s.attrs["kind"] == k]
        m[f"dynamics.record.us_per_event.{k}"] = _per(
            sum(self_time(s) for s in picked), sum(s.attrs["events"] for s in picked), 1e6)
    m["dynamics.record.events"] = sum(s.attrs["events"] for s in records)

    for L in KITAEV_SIZES:
        m[f"dynamics.kitaev_lifetime.self_s.L{L}"] = total(
            "dynamics.kitaev_lifetime",
            lambda s: s.attrs["L"] == L and s.attrs["decoder"] != "bare", self_time)
    for L in KITAEV_SIZES:
        m[f"dynamics.kitaev_lifetime.s.bare.L{L}"] = total(
            "dynamics.kitaev_lifetime",
            lambda s: s.attrs["L"] == L and s.attrs["decoder"] == "bare")

    decodes = by_name["decoder.decode"]
    m["decoder.decode.calls"] = len(decodes)
    m["decoder.decode.busy_s"] = total("decoder.decode")
    for bucket, lo, hi in DECODE_BUCKETS:
        picked = [s for s in decodes if lo <= s.attrs["k"] <= hi]
        m[f"decoder.decode.us_per_call.{bucket}"] = _per(
            sum(s.duration for s in picked), len(picked), 1e6)
    m["decoder.greedy_share"] = _per(
        sum(s.attrs.get("method") == "greedy" for s in decodes), len(decodes), 1.0)
    m["decoder.max_anyons"] = max((s.attrs["k"] for s in decodes), default=0)

    for key in GENERATOR_KEYS:
        m[f"exact.build_generator.s.{key}"] = total(
            "exact.build_generator", lambda s: s.attrs["key"] == key)
    for key in GAP_KEYS:
        m[f"exact.spectral_gap.s.{key}"] = total(
            "exact.spectral_gap", lambda s: s.attrs["key"] == key)
    l3 = [s for s in by_name["exact.spectral_gap"] if s.attrs["key"] == "Kitaev2D-L3"]
    l3_wall = sum(s.wall for s in l3)
    m["exact.spectral_gap.cpu_over_wall.Kitaev2D-L3"] = (
        sum(s.cpu for s in l3) / l3_wall if l3_wall else 0.0)
    masters = by_name["exact.integrate_master"]
    m["exact.integrate_master.calls"] = len(masters)
    m["exact.integrate_master.ms_per_call"] = _per(
        total("exact.integrate_master"), len(masters), 1e3)

    m["thermo.szilard_run.ms_per_stroke"] = _per(
        total("thermo.szilard_run"), len(by_name["thermo.szilard_run"]), 1e3)
    m["thermo.memory_engine_cycle.ms_per_cycle"] = _per(
        total("thermo.memory_engine_cycle"),
        len(by_name["thermo.memory_engine_cycle"]), 1e3)
    for p in EP_PERIODS:
        picked = [s for s in by_name["thermo.entropy_production"]
                  if s.attrs["periods"] == p]
        m[f"thermo.entropy_production.us_per_traj.P{p}"] = _per(
            sum(self_time(s) for s in picked), sum(s.attrs["n_traj"] for s in picked), 1e6)

    for f in QTOOLKIT_FUNCTIONS:
        name = f"qtoolkit.{f}"
        m[f"{name}.us_per_call"] = _per(total(name), len(by_name[name]), 1e6)
    m["qtoolkit.calls"] = sum(len(v) for k, v in by_name.items()
                              if k.startswith("qtoolkit."))

    runs = by_name["cli.run"]
    for e in EXPERIMENTS:
        m[f"cli.run.s.{e}"] = sum(s.duration for s in runs if s.attrs["experiment"] == e)
    for e in EXPERIMENTS:
        m[f"cli.self_s.{e}"] = sum(self_time(s) for s in runs
                                   if s.attrs["experiment"] == e)
    return m
