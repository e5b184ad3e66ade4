"""Seeded Monte Carlo harness: phase-transition grids and timing scans.

One trial loop, ``_trials``, serves both scans.  Trial t of the cell
(M, K) draws its solver seed, model and mask from
SeedSequence((master seed, M, K, t)), solves through
``solver_for(spec.method)`` and succeeds when its NMSE is at most
``SUCCESS_NMSE``; an exception fails that trial alone and never aborts
the scan.  The cell identity is the (M, K) pair itself rather than its
position in the spec lists, so adding or reordering cells never changes
the draws of existing cells.  Everything except wall-clock fields is a
pure function of (spec, master seed).

One writer serves both CSVs: a `# generated:` timestamp line (the only
nondeterministic line in phase grids), a `# spec:` line, a header row,
then one row per cell, and a gnuplot script of the same name with suffix
`.gp` next to the CSV.

- phase grid: ``M,K,trials,successes,rate`` per (M, K) cell.  The
  per-trial ``PhaseCell.outcomes`` and ``failure_reasons`` (trial index
  with its stop reason or exception) stay in memory and are not written.
- timing scan: ``N,M,trials,successes,excluded,median_total_seconds,
  median_iter_seconds`` per N, with M = floor(0.8 N); the medians run
  over the successful trials within ``time_cap`` and are blank when there
  are none.  A `# loglog_slope:` line follows when at least two sizes
  have a median per-iteration time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .chtgd import solve_chtgd
from .descent import SolverConfig
from .signals import (ProblemDims, apply_mask, check_int, random_model, sample_mask,
                      synthesize)
from .mhtgd import solve_mhtgd

__all__ = [
    "METHODS",
    "SUCCESS_NMSE",
    "PhaseGridSpec",
    "TimingSpec",
    "PhaseCell",
    "PhaseGridResult",
    "TimingRow",
    "TimingResult",
    "run_phase_grid",
    "run_timing",
    "solver_for",
]

SUCCESS_NMSE = 1e-6

METHODS = ("mhtgd", "chtgd")


def _check_scan(spec, positive: tuple) -> None:
    """The checks both specs share: ``method`` names a solver, the fields
    ``positive`` are integers >= 1 and ``seed`` is an integer >= 0."""
    if spec.method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {spec.method!r}")
    for name in positive:
        check_int(name, getattr(spec, name), 1)
    check_int("seed", spec.seed, 0)


def _check_not_bool(name: str, value) -> None:
    """``ValueError`` naming ``name`` when ``value`` is a bool: JSON true and
    false would otherwise pass as 1 and 0."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_min_sep(mult: float, K: int, N: int) -> None:
    """The condition of ``signals.random_model`` on min_sep = mult / N, for K."""
    _check_not_bool("min_sep_mult", mult)
    if not mult >= 0:  # NaN too
        raise ValueError(f"min_sep_mult must be >= 0, got {mult}")
    if K >= 2 and K * (mult / N) >= 1.0:
        raise ValueError(f"min_sep_mult={mult} leaves no room for K={K} frequencies "
                         f"at N={N}: need K * min_sep_mult < N")


@dataclass(frozen=True)
class PhaseGridSpec:
    """Success-rate scan over measurement counts M and model orders K."""

    N: int = 65
    L: int = 5
    m_values: tuple = tuple(range(5, 66, 5))
    k_values: tuple = tuple(range(1, 17))
    trials: int = 20
    min_sep_mult: float = 1.5
    method: str = "mhtgd"
    is_ca: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m_values", tuple(check_int("m_values", m, 1)
                                                   for m in self.m_values))
        object.__setattr__(self, "k_values", tuple(check_int("k_values", k, 1)
                                                   for k in self.k_values))
        _check_scan(self, ("N", "L", "trials"))
        if not isinstance(self.is_ca, bool):
            raise ValueError(f"is_ca must be true or false, got {self.is_ca!r}")
        if not self.m_values or not self.k_values:
            raise ValueError("m_values and k_values must be nonempty")
        n = ProblemDims(N=self.N, L=self.L, K=1, M=1).n
        if max(self.k_values) >= n:
            raise ValueError(f"every K must be < n={n}")
        if max(self.m_values) > self.N:
            raise ValueError("every M must lie in [1, N]")
        _check_min_sep(self.min_sep_mult, max(self.k_values), self.N)

    @property
    def min_sep(self) -> float:
        return self.min_sep_mult / self.N


@dataclass(frozen=True)
class TimingSpec:
    """Per-iteration cost scan over signal lengths N with M = floor(0.8 N)."""

    n_values: tuple = (255, 511, 1023, 2047, 4095)
    L: int = 3
    K: int = 3
    trials: int = 5
    time_cap: float = 100.0
    method: str = "mhtgd"
    min_sep_mult: float = 1.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(check_int("n_values", N, 1)
                                                   for N in self.n_values))
        _check_scan(self, ("L", "K", "trials"))
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        _check_not_bool("time_cap", self.time_cap)
        if not self.time_cap > 0:  # NaN too
            raise ValueError(f"time_cap must be positive, got {self.time_cap}")
        for N in self.n_values:
            if int(0.8 * N) < 1:
                raise ValueError(f"N={N} too small for the M = floor(0.8 N) rule")
            ProblemDims(N=N, L=self.L, K=self.K, M=self.m_for(N))  # K < n at every N
            _check_min_sep(self.min_sep_mult, self.K, N)

    def m_for(self, N: int) -> int:
        return int(np.floor(0.8 * N))


@dataclass
class PhaseCell:
    M: int
    K: int
    trials: int
    successes: int
    outcomes: list = field(default_factory=list)  # per-trial bool, in trial order
    failure_reasons: list = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.successes / self.trials


@dataclass
class PhaseGridResult:
    spec: PhaseGridSpec
    cells: list
    csv_path: Optional[Path] = None

    def rate(self, M: int, K: int) -> float:
        for c in self.cells:
            if c.M == M and c.K == K:
                return c.rate
        raise KeyError(f"no cell (M={M}, K={K})")

    def success_vector(self) -> tuple:
        """Per-trial outcome flags in trial order, the determinism fingerprint."""
        return tuple((c.M, c.K, tuple(c.outcomes)) for c in self.cells)


@dataclass
class TimingRow:
    N: int
    M: int
    trials: int
    successes: int
    excluded: int
    median_total_seconds: Optional[float]
    median_iter_seconds: Optional[float]


@dataclass
class TimingResult:
    spec: TimingSpec
    rows: list
    slope: Optional[float]
    csv_path: Optional[Path] = None


def solver_for(method: str):
    """The solve function of ``method``, one of ``METHODS``.

    The module globals are read at call time, so a rebinding of
    ``solve_mhtgd`` here (a test double or a tracing wrapper) is honoured.
    """
    return solve_mhtgd if method == "mhtgd" else solve_chtgd


def _trials(spec, dims: ProblemDims, is_ca: bool):
    """Yield (success, reason, report) for each trial of the cell ``dims``,
    in trial order (module docstring).  ``reason`` is None on a success and
    the stop reason otherwise; a trial that raised has the exception as its
    reason and no report."""
    for trial in range(spec.trials):
        seed = np.random.SeedSequence((int(spec.seed), dims.M, dims.K, trial))
        config = SolverConfig(seed=int(seed.generate_state(1)[0]))
        ss_model, ss_mask = seed.spawn(2)
        try:
            model = random_model(dims, min_sep=spec.min_sep_mult / dims.N, is_ca=is_ca,
                                 seed=ss_model)
            truth = synthesize(model, dims)
            mask = sample_mask(dims, seed=ss_mask)
            report = solver_for(spec.method)(apply_mask(truth, mask), mask, config,
                                             ground_truth=truth)
        except Exception as exc:  # individual failures never abort a scan
            yield False, f"{type(exc).__name__}: {exc}", None
            continue
        ok = report.nmse is not None and report.nmse <= SUCCESS_NMSE
        yield ok, None if ok else report.stop_reason, report


def run_phase_grid(spec: PhaseGridSpec, csv_path=None) -> PhaseGridResult:
    """Success rates over the (M, K) grid; optionally persisted as CSV."""
    cells = []
    for M in spec.m_values:
        for K in spec.k_values:
            dims = ProblemDims(N=spec.N, L=spec.L, K=K, M=M)
            cell = PhaseCell(M=M, K=K, trials=spec.trials, successes=0)
            for trial, (ok, reason, _) in enumerate(_trials(spec, dims, spec.is_ca)):
                cell.outcomes.append(ok)
                if ok:
                    cell.successes += 1
                else:
                    cell.failure_reasons.append((trial, reason))
            cells.append(cell)
    result = PhaseGridResult(spec=spec, cells=cells)
    if csv_path is not None:
        lines = [f"{c.M},{c.K},{c.trials},{c.successes},{c.rate:.6g}" for c in cells]
        result.csv_path = _write_scan(spec, csv_path, _PHASE_HEADER, lines, _PHASE_PLOT)
    return result


def run_timing(spec: TimingSpec, csv_path=None) -> TimingResult:
    """Median per-iteration solve times per N and the log-log slope fit.

    Runs whose total wall time exceeds ``spec.time_cap`` are excluded from
    the medians but still counted in the ``excluded`` column.
    """
    rows = []
    for N in spec.n_values:
        dims = ProblemDims(N=N, L=spec.L, K=spec.K, M=spec.m_for(N))
        totals, per_iter = [], []
        excluded = 0
        for ok, _, report in _trials(spec, dims, spec.method == "chtgd"):
            if report is not None and report.total_seconds > spec.time_cap:
                excluded += 1
            elif ok and report.iter_seconds:
                totals.append(report.total_seconds)
                per_iter.append(float(np.median(report.iter_seconds)))
        rows.append(TimingRow(
            N=N, M=dims.M, trials=spec.trials, successes=len(totals), excluded=excluded,
            median_total_seconds=float(np.median(totals)) if totals else None,
            median_iter_seconds=float(np.median(per_iter)) if per_iter else None,
        ))
    fitted = [(r.N, r.median_iter_seconds) for r in rows if r.median_iter_seconds is not None]
    slope = None
    if len(fitted) >= 2:
        sizes, med_iters = zip(*fitted)
        slope = float(np.polyfit(np.log(sizes), np.log(med_iters), 1)[0])
    result = TimingResult(spec=spec, rows=rows, slope=slope)
    if csv_path is not None:
        lines = []
        for r in rows:
            tot = "" if r.median_total_seconds is None else f"{r.median_total_seconds:.6g}"
            per = "" if r.median_iter_seconds is None else f"{r.median_iter_seconds:.6g}"
            lines.append(f"{r.N},{r.M},{r.trials},{r.successes},{r.excluded},{tot},{per}")
        if slope is not None:
            lines.append(f"# loglog_slope: {slope:.4f}")
        result.csv_path = _write_scan(spec, csv_path, _TIMING_HEADER, lines, _TIMING_PLOT)
    return result


# ---------- persistence ----------

# the header row and the gnuplot lines after the datafile settings of each
# scan; "{csv}" stands for the CSV's file name
_PHASE_HEADER = "M,K,trials,successes,rate"
_PHASE_PLOT = ("set title 'success rate: {csv}'", "set xlabel 'K'", "set ylabel 'M'",
               "set cbrange [0:1]", "set view map",
               "splot '{csv}' using 2:1:5 with points pt 5 ps 3 palette notitle")
_TIMING_HEADER = "N,M,trials,successes,excluded,median_total_seconds,median_iter_seconds"
_TIMING_PLOT = ("set title 'median per-iteration time: {csv}'", "set xlabel 'N'",
                "set ylabel 'seconds per iteration'", "set logscale xy",
                "plot '{csv}' using 1:7 with linespoints pt 7 notitle")


def _write_scan(spec, csv_path, header: str, rows: list, plot: tuple) -> Path:
    """Write the CSV of a scan (module docstring) and its gnuplot script."""
    path = Path(csv_path)
    fields = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(spec).items()}
    lines = [f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
             f"# spec: {json.dumps(fields, sort_keys=True)}", header, *rows]
    path.write_text("\n".join(lines) + "\n")
    script = ["set datafile separator comma", "set datafile commentschars '#'", *plot]
    path.with_suffix(".gp").write_text(
        "\n".join(line.format(csv=path.name) for line in script) + "\n")
    return path
