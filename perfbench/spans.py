"""Spans and counts at the public entry points of each htgd layer.

The hooks live here, in the benchmark, not in the program: each target is
a public name whose function gets wrapped, and the wrapper records a span
(name, start, end, parent span, solve id) around every call.  FFT entry
points are wrapped before ``htgd`` is imported, so a later
``from scipy.fft import fft`` inside the package binds the wrapper; the
htgd targets are patched right after import in every htgd module that
bound the same object, which catches ``from .signals import ...`` too.

A target that no longer exists after a refactor is reported as a warning
and the metrics that need it come out as ``None``; the run goes on.

Hooks are switched off by putting the original objects back, so an
untraced pass in the same process runs the program's own code.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute, span name); run_descent and solve_mhtgd are wrapped in
# their own module only, every other target in each htgd module that bound it
TARGETS = (
    ("htgd.signals", "random_model", "signals.random_model"),
    ("htgd.signals", "synthesize", "signals.synthesize"),
    ("htgd.signals", "sample_mask", "signals.sample_mask"),
    ("htgd.signals", "apply_mask", "signals.apply_mask"),
    ("htgd.operators", "fast_lift_mul", "operators.fast_lift_mul"),
    ("htgd.mhtgd", "spectral_init", "lowrank.init"),
    ("htgd.chtgd", "spectral_init_ca", "lowrank.init"),
    ("htgd.mhtgd", "run_descent", "mhtgd.descent"),
    ("htgd.chtgd", "run_descent", "chtgd.descent"),
    ("htgd.retrieval", "esprit", "retrieval.esprit"),
    ("htgd.retrieval", "match_frequencies", "retrieval.match"),
    ("htgd.experiments", "run_phase_grid", "experiments.run_phase_grid"),
    ("htgd.experiments", "solve_mhtgd", "experiments.solve"),
)
FFT_TARGETS = (("numpy.fft", "fft"), ("numpy.fft", "ifft"),
               ("scipy.fft", "fft"), ("scipy.fft", "ifft"))

STOP_REASONS = ("converged", "max_iter", "line_search_failure", "numerical_failure")


@dataclass
class DescentRecord:
    """What one hooked ``run_descent`` call returned."""

    span: int
    iterations: int
    stop_reason: str
    iter_seconds: list


@dataclass
class Tracer:
    """Spans and counts, kept in memory until the run writes them out."""

    spans: list = field(default_factory=list)  # [name, start, end, parent, solve]
    stack: list = field(default_factory=list)
    solve: object = None
    descents: list = field(default_factory=list)
    solver_iterations: list = field(default_factory=list)  # per experiments.solve call
    fft_calls: int = 0  # FFT calls and points made inside descents
    fft_points: int = 0
    open_descents: int = 0
    fft_depth: int = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.solve])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def fft_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fft_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self.fft_depth -= 1
            # an entry point calling another counts once
            if self.fft_depth == 0 and self.open_descents:
                self.fft_calls += 1
                self.fft_points += out.size
            return out
        return wrapper

    def descent_wrapper(self, solver, fn):
        """Span around the solver's descent, with its objective and gradient wrapped."""
        @functools.wraps(fn)
        def wrapper(state0, objective, grad_and_lift, *args, **kwargs):
            objective = self.span_wrapper(f"{solver}.objective", objective)
            grad_and_lift = self.span_wrapper(f"{solver}.grad", grad_and_lift)
            idx = self.open("descent.run")
            self.open_descents += 1
            try:
                out = fn(state0, objective, grad_and_lift, *args, **kwargs)
            finally:
                self.open_descents -= 1
                self.close(idx)
            self.descents.append(DescentRecord(idx, out.iterations, out.stop_reason,
                                               list(out.iter_seconds)))
            return out
        return wrapper

    def solve_wrapper(self, fn, traced):
        """Per-trial solver call inside ``run_phase_grid``; its iteration count is
        kept in both passes so the determinism check can compare them."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not traced:
                report = fn(*args, **kwargs)
            else:
                self.solve = len(self.solver_iterations)
                idx = self.open("experiments.solve")
                try:
                    report = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                    self.solve = None
            self.solver_iterations.append(report.iterations)
            return report
        return wrapper


@dataclass
class Site:
    module: object
    attr: str
    untraced: object
    traced: object


@dataclass
class Hooks:
    """Wrapped bindings; ``set_traced`` swaps every site between its two objects."""

    tracer: Tracer
    sites: list = field(default_factory=list)
    missing: set = field(default_factory=set)  # span names whose target is gone
    fft_missing: bool = False
    warnings: list = field(default_factory=list)

    def set_traced(self, on: bool) -> None:
        for s in self.sites:
            setattr(s.module, s.attr, s.traced if on else s.untraced)

    def _rebind(self, original, wrapper, only=None, untraced=None):
        """Point every htgd binding of ``original`` (or only ``only``) at ``wrapper``."""
        modules = [only] if only is not None else [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "htgd" or name.startswith("htgd."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.sites.append(Site(mod, attr, untraced or original, wrapper))

    def _warn(self, msg: str) -> None:
        self.warnings.append(msg)
        print(f"warning: {msg}", file=sys.stderr)


def install_fft_hooks(hooks: Hooks) -> None:
    """Wrap the FFT entry points; call before ``htgd`` is imported."""
    for modname, attr in FFT_TARGETS:
        try:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            hooks.fft_missing = True
            hooks._warn(f"FFT target {modname}.{attr} not found; FFT counts are reported as null")
            continue
        wrapper = hooks.tracer.fft_wrapper(fn)
        hooks.sites.append(Site(mod, attr, fn, wrapper))
        setattr(mod, attr, wrapper)


def install_htgd_hooks(hooks: Hooks) -> None:
    """Wrap the htgd layer entry points; call right after ``htgd`` is imported."""
    tr = hooks.tracer
    for site in list(hooks.sites):  # FFT names bound inside htgd while hooked
        hooks._rebind(site.traced, site.traced, untraced=site.untraced)
    for modname, attr, span in TARGETS:
        mod = sys.modules.get(modname)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:
            hooks.missing.add(span)
            hooks._warn(f"hook target {modname}.{attr} not found; metrics that need "
                        f"'{span}' are reported as null")
            continue
        if attr == "run_descent":
            hooks._rebind(fn, tr.descent_wrapper(modname.split(".")[1], fn), only=mod)
        elif attr == "solve_mhtgd":
            hooks._rebind(fn, tr.solve_wrapper(fn, True), only=mod,
                          untraced=tr.solve_wrapper(fn, False))
        else:
            hooks._rebind(fn, tr.span_wrapper(span, fn))
    hooks.set_traced(True)


# ---------- per-layer metrics from the recorded spans ----------


def _dur(span) -> float:
    return span[2] - span[1]


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den):
    return num / den if num is not None and den else None


def self_times(spans, first: int = 0) -> dict:
    """Self time per span name over ``spans[first:]``: each span's duration
    minus the time of its child spans."""
    child = Counter()
    for s in spans[first:]:
        if s[3] is not None:
            child[s[3]] += _dur(s)
    out = Counter()
    for i in range(first, len(spans)):
        out[spans[i][0]] += _dur(spans[i]) - child[i]
    return dict(out)


def layer_metrics(tracer: Tracer, hooks: Hooks, *, first_span: int, solves: int,
                  solve_span: str, model_ops: float, gen_spans: range) -> dict:
    """The per-layer figures of the traced pass (spans from ``first_span`` on).

    ``solve_span`` names the span that bounds one solve, ``model_ops`` is the
    cost-model count L K N log2 N + L^2 K^2 N of one iteration, and
    ``gen_spans`` the span indices in which the inputs were generated.
    Returns ``{name: (value or None, unit)}``.
    """
    spans = tracer.spans
    pass_idx = range(first_span, len(spans))
    by_name: dict = {}
    for i in pass_idx:
        by_name.setdefault(spans[i][0], []).append(_dur(spans[i]))

    def durs(name):
        return None if name in hooks.missing else by_name.get(name, [])

    def total(name):
        d = durs(name)
        return None if d is None else sum(d)

    def p50(name):
        return _median(durs(name))

    solve_total = total(solve_span)
    descents = [d for d in tracer.descents if d.span >= first_span]
    traced_solvers = {"mhtgd.descent", "chtgd.descent"} - hooks.missing
    iters = sum(d.iterations for d in descents) if traced_solvers else None
    iter_secs = [t for d in descents for t in d.iter_seconds]
    s_per_iter = _median(iter_secs)
    descent_time = sum(_dur(spans[d.span]) for d in descents)
    # the first objective call of each descent evaluates the start point;
    # every later one is a line-search trial
    objective_calls = [i for i in pass_idx if spans[i][0].endswith(".objective")]
    first_eval = {}
    for i in objective_calls:
        first_eval.setdefault(spans[i][3], i)
    linesearch = sum(_dur(spans[i]) for i in objective_calls if i not in first_eval.values())
    lift = durs("operators.fast_lift_mul")
    gen_s = (None if "signals.random_model" in hooks.missing else
             sum(_dur(spans[i]) for i in gen_spans if spans[i][0].startswith("signals.")))
    fft_calls = None if hooks.fft_missing else _ratio(tracer.fft_calls, iters)
    fft_points = None if hooks.fft_missing else _ratio(tracer.fft_points, iters)

    m = {
        "signals.gen_s": (gen_s, "s"),
        "lowrank.init_s_p50": (p50("lowrank.init"), "s"),
        "lowrank.init_share": (_ratio(total("lowrank.init"), solve_total), "share"),
        "operators.fast_lift_mul_calls": (None if lift is None else len(lift) / solves, "count"),
        "operators.fast_lift_mul_s": (None if lift is None else sum(lift) / solves, "s"),
        "descent.iters": (iters, "count"),
        "descent.s_per_iter_p50": (s_per_iter, "s"),
        "descent.evals_per_iter": (_ratio(len(objective_calls), iters), "evals/iter"),
        "descent.linesearch_share": (_ratio(linesearch, descent_time), "share"),
    }
    for reason in STOP_REASONS:
        m[f"descent.stop.{reason}"] = (sum(d.stop_reason == reason for d in descents)
                                       if traced_solvers else None, "count")
    m["descent.fft_calls_per_iter"] = (fft_calls, "calls/iter")
    m["descent.fft_points_per_iter"] = (fft_points, "points/iter")
    m["descent.ns_per_model_op"] = (None if s_per_iter is None else s_per_iter * 1e9 / model_ops, "ns")
    # whichever solver ran, so the figure exists on every workload
    m["descent.objective_s_p50"] = (_median(by_name.get("mhtgd.objective", []) + by_name.get("chtgd.objective", [])), "s")
    m["descent.grad_s_p50"] = (_median(by_name.get("mhtgd.grad", []) + by_name.get("chtgd.grad", [])), "s")
    for solver in ("mhtgd", "chtgd"):
        for part in ("objective", "grad"):
            m[f"{solver}.{part}_s_p50"] = (p50(f"{solver}.{part}"), "s")
    m["retrieval.esprit_s_p50"] = (p50("retrieval.esprit"), "s")
    m["retrieval.esprit_share"] = (_ratio(total("retrieval.esprit"), solve_total), "share")
    m["retrieval.match_s"] = (p50("retrieval.match"), "s")
    m["experiments.solver_share"] = (_ratio(total("experiments.solve"),
                                            total("experiments.run_phase_grid")), "share")
    return m


def model_ops(N: int, L: int, K: int) -> float:
    """Per-iteration cost model of the paper: L K N log2 N + L^2 K^2 N."""
    return L * K * N * math.log2(N) + L * L * K * K * N
