"""Timing wrappers around each kgdecay layer's public calls.

``launch.py`` calls ``install`` before it runs the CLI.  Each traced
function is replaced in every ``kgdecay.*`` namespace that holds it: the
modules import each other's names with ``from .x import y``, so patching
only a function's home module would miss calls made through the importing
modules.  Methods are patched on their class.  A span's self time is its
duration minus the durations of the traced spans it encloses.

The wrappers also time their own bookkeeping and installation, which is
reported as the tracing overhead.  ``Tracer.to_dict`` gives the aggregated
spans, work counters, per-suite peak RSS, overhead and the targets this
version of the package does not have; the benchmark counts a traced run
with any missing target as failed, so a renamed function cannot read as 0.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import resource
import time


def _add(counters, key, n):
    counters[key] = counters.get(key, 0) + int(n)


def _fft_points(counters, result, args, kwargs):
    # forward_transform returns a SpectralField, inverse_transform a Field
    arr = getattr(result, "coefficients", None)
    if arr is None:
        arr = result.values
    _add(counters, "grid.fft_points", arr.size)


def _eval_entries(counters, result, args, kwargs):
    data = args[0] if args else kwargs["data"]
    _add(counters, "propagator.evaluate_at_points.entries", result[0].size * data.f.values.size)


def _slice_points(counters, result, args, kwargs):
    _add(counters, "hyperboloid.slice_points", result.n_points)


def _sampled_points(counters, result, args, kwargs):
    _add(counters, "hyperboloid.sample_on_slice.points", result.slice.n_points)


# (module, attribute path, span name, work counter)
TARGETS = (
    ("grid", "forward_transform", "grid.forward_transform", _fft_points),
    ("grid", "inverse_transform", "grid.inverse_transform", _fft_points),
    ("grid", "upsample_values", "grid.upsample_values", None),
    ("bands", "LittlewoodPaleyBank.project", "bands.project", None),
    ("propagator", "evolve_spectra", "propagator.evolve_spectra", None),
    ("propagator", "boost_commuted_data", "propagator.boost_commuted_data", None),
    ("propagator", "evaluate_at_points", "propagator.evaluate_at_points", _eval_entries),
    ("hyperboloid", "build_slice", "hyperboloid.build_slice", _slice_points),
    ("hyperboloid", "sample_on_slice", "hyperboloid.sample_on_slice", _sampled_points),
    ("hyperboloid", "energy", "hyperboloid.energy", None),
    ("hyperboloid", "global_sobolev_check", "hyperboloid.global_sobolev_check", None),
    ("hyperboloid", "pointwise_energy_check", "hyperboloid.pointwise_energy_check", None),
    ("decay", "sup_norms", "decay.sup_norms", None),
    ("decay", "lowfreq_check", "decay.lowfreq_check", None),
    ("decay", "highfreq_check", "decay.highfreq_check", None),
    ("decay", "interpolation_check", "decay.interpolation_check", None),
    ("decay", "localized_decay_check", "decay.localized_decay_check", None),
    ("reporting", "emit_report_files", "reporting.emit_report_files", None),
    ("reporting", "dump_json", "reporting.dump_json", None),
)


class Tracer:
    """Aggregates spans by name: calls, total and self seconds."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self.suite_rss_mb = {}
        # seconds spent in the wrappers' own bookkeeping, outside the spans
        self.overhead_s = 0.0
        self.missing = []  # TARGETS span names the package does not have
        self._child_time = []  # one accumulator per open span

    def wrap(self, name, fn, count=None, on_exit=None):
        spans, counters, stack = self.spans, self.counters, self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                span["calls"] += 1
                span["total_s"] += elapsed
                span["self_s"] += elapsed - child
            if count is not None:
                count(counters, result, args, kwargs)
            if on_exit is not None:
                on_exit()
            self.overhead_s += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "suite_rss_mb": self.suite_rss_mb,
            "overhead_s": self.overhead_s,
            "missing": self.missing,
        }


def _package_modules():
    import kgdecay

    names = ["kgdecay"] + [f"kgdecay.{m.name}" for m in pkgutil.iter_modules(kgdecay.__path__)]
    return [importlib.import_module(n) for n in names]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer) -> None:
    """Patch every target in every kgdecay namespace; list in
    ``tracer.missing`` the targets this version of the package lacks."""
    start = time.perf_counter()
    modules = _package_modules()
    for home, path, name, count in TARGETS:
        try:
            owner = importlib.import_module(f"kgdecay.{home}")
        except ModuleNotFoundError:
            owner = None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, count)
        if outer:  # a method: patch it on its class
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    suites = importlib.import_module("kgdecay.suites")
    for suite, runner in list(suites.SUITE_RUNNERS.items()):
        def record_rss(suite=suite):
            tracer.suite_rss_mb[suite] = _peak_rss_mb()

        suites.SUITE_RUNNERS[suite] = tracer.wrap(f"suites.{suite}", runner, on_exit=record_rss)
    tracer.overhead_s += time.perf_counter() - start
