"""Per-layer tracing from outside the package.

`installed(tracer)` replaces every module-level binding of a public
`derange` function (in any `derange` module namespace, and in the dicts
those namespaces hold, such as `verify.SUITES`) by a wrapper that records a
span, and puts the originals back on exit. A span's self time is its
duration minus the durations of its direct child spans. `LAYER_METRICS`
names the per-layer metrics and the spans or hooks they are read from; a
metric whose source function no longer exists is reported absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import factorial
from time import perf_counter

LAYERS = ("cli", "verify", "series", "polys", "hankel", "oracle",
          "stochastic", "exact")

# name -> (unit, kind, source spans). kind "self" sums self time over the
# source spans (a trailing * matches a prefix); "calls" counts their calls;
# "count" and "max" are filled by the hooks below from the same spans;
# "external" metrics come from the harness, not from spans.
LAYER_METRICS = {
    "cli.import_s": ("s", "external", ()),
    "cli.numpy_import_s": ("s", "external", ()),
    "cli.main.self_s": ("s", "self", ("cli.main", "cli.build_parser", "cli.cmd_*")),
    "cli.render_report.s": ("s", "self", ("cli.render_report",)),
    "verify.suite_recurrences.self_s": ("s", "self", ("verify.suite_recurrences",)),
    "verify.suite_reflection.self_s": ("s", "self", ("verify.suite_reflection",)),
    "verify.suite_hankel.self_s": ("s", "self", ("verify.suite_hankel",)),
    "verify.suite_derivative_hankel.self_s": ("s", "self", ("verify.suite_derivative_hankel",)),
    "verify.suite_mgf.self_s": ("s", "self", ("verify.suite_mgf",)),
    "verify.suite_oracles.self_s": ("s", "self", ("verify.suite_oracles",)),
    "verify.cells": ("count", "count", ("verify.suite_*",)),
    "series.egf_values.s": ("s", "self", ("series.egf_values",)),
    "series.egf_values.calls": ("count", "calls", ("series.egf_values",)),
    "series.series_mul.s": ("s", "self", ("series.series_mul",)),
    "series.terms": ("count", "count", ("series.egf_values",)),
    "series.max_value_bits": ("bits", "max", ("series.egf_values",)),
    "polys.generate_D_by_convolution.s": ("s", "self", ("polys.generate_D_by_convolution",)),
    # the order-r path, polys.generate_d_by_convolution; the name differs
    # from the one above by more than letter case
    "polys.order_d_by_convolution.s": ("s", "self", ("polys.generate_d_by_convolution",)),
    "polys.generalized_D_poly.s": ("s", "self", ("polys.generalized_D_poly",)),
    "polys.eval_poly.s": ("s", "self", ("polys.eval_poly",)),
    "polys.eval_poly.calls": ("count", "calls", ("polys.eval_poly",)),
    "polys.verify_shift_recurrences.s": ("s", "self", ("polys.verify_shift_recurrences",)),
    "hankel.hankel_matrix.s": ("s", "self", ("hankel.hankel_matrix",)),
    "hankel.det_bareiss.s": ("s", "self", ("hankel.det_bareiss",)),
    "hankel.det_condensation.s": ("s", "self", ("hankel.det_condensation",)),
    "hankel.det_cofactor.s": ("s", "self", ("hankel.det_cofactor",)),
    "hankel.closed_form.s": ("s", "self", ("hankel.closed_form_*",)),
    "hankel.verify_hankel.self_s": ("s", "self", ("hankel.verify_hankel",)),
    "hankel.verify_derivative_hankel.self_s": ("s", "self", ("hankel.verify_derivative_hankel",)),
    "hankel.degenerate": ("count", "count", ("hankel.det_condensation",)),
    "hankel.max_entry_bits": ("bits", "max", ("hankel.hankel_matrix",)),
    "oracle.count_derangements_brute.s": ("s", "self", ("oracle.count_derangements_brute",)),
    "oracle.count_cyclic_derangements_brute.s": ("s", "self", ("oracle.count_cyclic_derangements_brute",)),
    "oracle.enumerated": ("count", "count", ("oracle.count_*",)),
    "oracle.skipped": ("count", "count", ("oracle.count_*",)),
    "stochastic.mc_moment.s": ("s", "self", ("stochastic.mc_moment",)),
    "stochastic.mc_generalized_D.s": ("s", "self", ("stochastic.mc_generalized_D",)),
    "stochastic.draws": ("count", "count", ("stochastic.mc_moment", "stochastic.mc_generalized_D")),
    "stochastic.tracemalloc_peak_mb": ("MB", "max", ("stochastic.mc_*",)),
    "stochastic.max_abs_z": ("sigma", "external", ()),
    "exact.factorial.calls": ("count", "calls", ("exact.factorial",)),
    "exact.rising_factorial.calls": ("count", "calls", ("exact.rising_factorial",)),
    "trace_overhead": ("ratio", "external", ()),
}


def _bits(v) -> int:
    v = Fraction(v)
    return max(v.numerator.bit_length(), v.denominator.bit_length())


# Hooks read a call's bound arguments and its result (or exception) and
# update counters; they run outside the span's own timing.
def _on_egf_values(t, args, result, exc):
    if exc is None:
        t.count("series.terms", len(result))
        t.maximum("series.max_value_bits", max(map(_bits, result)))


def _on_hankel_matrix(t, args, result, exc):
    if exc is None:
        t.maximum("hankel.max_entry_bits",
                  max(_bits(v) for row in result for v in row))


def _on_det_condensation(t, args, result, exc):
    if type(exc).__name__ == "DegenerateInterior":
        t.count("hankel.degenerate", 1)


def _on_oracle(t, args, result, exc):
    if exc is None:
        t.count("oracle.enumerated",
                factorial(args["n"]) * args.get("r", 1) ** args["n"])
    elif type(exc).__name__ == "SizeTooLarge":
        t.count("oracle.skipped", 1)


def _draws(power_arg):
    def hook(t, args, result, exc):
        if exc is None and args[power_arg] > 0:
            t.count("stochastic.draws", args["samples"] * args["r"])
    return hook


def _on_suite(t, args, result, exc):
    if exc is None:
        t.count("verify.cells", len(result))


HOOKS = {
    "series.egf_values": _on_egf_values,
    "hankel.hankel_matrix": _on_hankel_matrix,
    "hankel.det_condensation": _on_det_condensation,
    "oracle.count_derangements_brute": _on_oracle,
    "oracle.count_cyclic_derangements_brute": _on_oracle,
    "stochastic.mc_moment": _draws("k"),
    "stochastic.mc_generalized_D": _draws("n"),
    "verify.suite_*": _on_suite,
}


def _matches(span: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return span.startswith(pattern[:-1])
    return span == pattern


class Tracer:
    """Self time, call counts, counters and maxima, kept per pass."""

    def __init__(self):
        self._stack = []      # child time accumulated by each open span
        self.passes = []      # one dict of {key: value} per traced pass
        self._cur = None
        self.spans = set()    # names of every wrapped function
        self._mem_depth = 0

    def begin_pass(self):
        self._cur = defaultdict(float)
        self.passes.append(self._cur)

    def count(self, key, n):
        self._cur["n:" + key] += n

    def maximum(self, key, v):
        if v > self._cur["n:" + key]:
            self._cur["n:" + key] = v

    def wrap(self, name, fn):
        stack = self._stack
        hook = next((h for p, h in HOOKS.items() if _matches(name, p)), None)
        sig = inspect.signature(fn) if hook else None
        track_memory = name.startswith("stochastic.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mem = track_memory and self._mem_depth == 0
            if mem:
                tracemalloc.start()
            self._mem_depth += track_memory
            stack.append(0.0)
            exc = result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self._mem_depth -= track_memory
                cur = self._cur
                cur["s:" + name] += dt - child
                cur["c:" + name] += 1
                if mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.maximum("stochastic.tracemalloc_peak_mb", peak / 2 ** 20)
                if hook:
                    try:
                        bound = sig.bind(*args, **kwargs)
                    except TypeError:
                        pass  # the call itself was malformed; it raised
                    else:
                        bound.apply_defaults()
                        hook(self, bound.arguments, result, exc)

        traced.__wrapped_by_bench__ = True
        return traced

    def layer_metrics(self) -> dict:
        """Per-pass value of every LAYER_METRICS entry whose sources exist:
        the median over traced passes for times and counts, the maximum for
        maxima. External metrics are left to the caller."""
        out = {}
        for metric, (unit, kind, sources) in LAYER_METRICS.items():
            if kind == "external":
                continue
            names = [s for s in self.spans
                     if any(_matches(s, p) for p in sources)]
            if not names:
                continue  # the function is gone: absent, not an error
            if kind == "self":
                keys = ["s:" + s for s in names]
            elif kind == "calls":
                keys = ["c:" + s for s in names]
            else:
                keys = ["n:" + metric]
            per_pass = [sum(p.get(k, 0.0) for k in keys) for p in self.passes]
            value = (max(per_pass) if kind == "max"
                     else statistics.median(per_pass)) if per_pass else 0.0
            out[metric] = (value, unit)
        return out


def derange_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "derange" or name.startswith("derange.")]


def _public_functions() -> dict:
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"derange.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{layer}.{attr}"
    return found


def _bindings():
    """Every (namespace, key, value) of the loaded derange modules, and of
    the dicts they hold at module level."""
    for mod in derange_modules():
        ns = vars(mod)
        containers = [ns] + [v for k, v in ns.items()
                             if isinstance(v, dict) and not k.startswith("__")]
        for container in containers:
            for key, obj in list(container.items()):
                yield container, key, obj


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace one pass: wrap every binding of every public function of the
    eight layers, then restore the originals and check none is left."""
    names = _public_functions()
    tracer.spans = set(names.values())
    tracer.begin_pass()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    patched = []
    for container, key, obj in _bindings():
        if inspect.isfunction(obj) and obj in wrappers:
            container[key] = wrappers[obj]
            patched.append((container, key, obj))
    try:
        yield
    finally:
        for container, key, obj in reversed(patched):
            container[key] = obj
        assert_unwrapped()


def assert_unwrapped() -> None:
    for _, key, obj in _bindings():
        if getattr(obj, "__wrapped_by_bench__", False):
            raise RuntimeError(f"trace wrapper left on {key}")
