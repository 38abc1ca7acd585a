"""Span tracing installed from outside the package.

Wrappers replace a function wherever a module of the package binds it,
not only where it is defined: ``field``, ``series`` and ``polynomials``
import the kernels by name, and ``identities`` imports the families by
name, so patching the defining module alone would record nothing.
Methods are patched in their class, under every name bound to them
(``__add__`` and ``__radd__`` are one function).

Each call opens a span with an id and its parent's id.  A span's self
time is its duration minus the time covered by its children.  Spans are
folded into per-name totals as they close, so memory stays flat however
many calls a run makes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (metric prefix, module, attribute path) of each traced public function.
TRACED = (
    ("kernels.conv_frac", "apobern._kernels", "conv_frac"),
    ("kernels.recip_frac", "apobern._kernels", "recip_frac"),
    ("kernels.prim_gcd_int", "apobern._kernels", "prim_gcd_int"),
    ("field.LambdaRatFunc.add", "apobern.field", "LambdaRatFunc.__add__"),
    ("field.LambdaRatFunc.mul", "apobern.field", "LambdaRatFunc.__mul__"),
    ("field.LambdaRatFunc.inverse", "apobern.field", "LambdaRatFunc.inverse"),
    ("field.LambdaPoly.mul", "apobern.field", "LambdaPoly.__mul__"),
    ("field.poly_gcd", "apobern.field", "poly_gcd"),
    ("series.TruncatedSeries.mul", "apobern.series", "TruncatedSeries.__mul__"),
    ("series.TruncatedSeries.recip", "apobern.series", "TruncatedSeries.recip"),
    ("series.TruncatedSeries.pow", "apobern.series", "TruncatedSeries.__pow__"),
    ("polynomials.XPolynomial.add", "apobern.polynomials", "XPolynomial.__add__"),
    ("polynomials.XPolynomial.mul", "apobern.polynomials", "XPolynomial.__mul__"),
    ("polynomials.XPolynomial.scalar_mul", "apobern.polynomials", "XPolynomial.scalar_mul"),
    ("operators.shift_poly", "apobern.operators", "shift_poly"),
    ("operators.lambda_op", "apobern.operators", "lambda_op"),
    ("operators.lambda_power_at_zero", "apobern.operators", "lambda_power_at_zero"),
    ("expansion.expand_oracle", "apobern.expansion", "expand_oracle"),
    ("expansion.closed_form_coefficients", "apobern.expansion", "closed_form_coefficients"),
    ("expansion.corrected_coefficients", "apobern.expansion", "corrected_coefficients"),
    ("render.render_x_poly", "apobern.render", "render_x_poly"),
    ("render.render_field_element", "apobern.render", "render_field_element"),
    ("reporting.render_report", "apobern.reporting", "render_report"),
    ("reporting.expectation_mismatches", "apobern.reporting", "expectation_mismatches"),
    ("cli.main", "apobern.cli", "main"),
)

# The memoized constructors of apobern.families, read through cache_info().
CACHED = (
    "_bernoulli_kernel",
    "_euler_kernel",
    "apostol_bernoulli_numbers",
    "apostol_euler_numbers",
    "bernoulli_numbers_by_recurrence",
    "euler_numbers_by_recurrence",
    "apostol_bernoulli_poly",
    "apostol_euler_poly",
)


class Tracer:
    """Call counts and self time per span name."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        # Open spans: [span id, parent id, name, start, time covered by children].
        self._open: List[list] = []
        self._next_id = 0

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        span = [self._next_id, parent[0] if parent else 0, name, 0.0, 0.0]
        self._open.append(span)
        span[3] = time.perf_counter()
        return span

    def _exit(self, span: list):
        duration = time.perf_counter() - span[3]
        self._open.pop()
        name = span[2]
        self.calls[name] += 1
        self.self_s[name] += duration - span[4]
        if self._open:
            self._open[-1][4] += duration

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(opened)

        return traced


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "apobern" or name.startswith("apobern."))]


@contextmanager
def installed(tracer: Tracer):
    """Trace every function in TRACED for the duration of the block."""
    undo = []
    try:
        for name, module_name, path in TRACED:
            owner = sys.modules[module_name]
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            # Classes bind methods once (under possibly several names);
            # functions are bound in every module that imports them.
            holders = [owner] if class_path else _package_modules()
            sites = [(h, key) for h in holders for key, value in list(vars(h).items())
                     if value is original]
            if not sites:
                raise RuntimeError(f"{module_name}.{path} is bound nowhere")
            for holder, key in sites:
                setattr(holder, key, wrapper)
                undo.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


class CacheStats:
    """Hits and misses of the family caches, kept across cache clears."""

    def __init__(self, families):
        self.families = families
        self.hits: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)

    def collect(self):
        """Add the current counters; call before every clear_caches()."""
        for name in CACHED:
            info = getattr(self.families, name).cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out = {}
        for name in CACHED:
            lookups = self.hits[name] + self.misses[name]
            out[f"families.{name}.misses"] = (self.misses[name], "count")
            out[f"families.{name}.hit_ratio"] = (
                self.hits[name] / lookups if lookups else 0.0, "ratio")
        return out


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    return out
