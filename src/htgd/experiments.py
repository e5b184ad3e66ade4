"""Seeded Monte Carlo harness: phase-transition grids and timing scans.

Child seeds derive from (master seed, cell identity, trial index), where
the cell identity is the (M, K) pair itself rather than its position in
the spec lists, so adding or reordering cells never changes the draws of
existing cells.  Everything except wall-clock fields is a pure function
of (spec, master seed).

CSV layout: one `# generated:` timestamp line (the only nondeterministic
line in phase grids), one `# spec:` line, a header row, then data rows.
A gnuplot companion script is written next to each CSV.
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
from .signals import ProblemDims, apply_mask, random_model, sample_mask, synthesize
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


def _check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return method


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
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        _check_method(self.method)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.m_values or not self.k_values:
            raise ValueError("m_values and k_values must be nonempty")
        n = ProblemDims(N=self.N, L=self.L, K=1, M=1).n
        if max(self.k_values) >= n:
            raise ValueError(f"every K must be < n={n}")
        if min(self.m_values) < 1 or max(self.m_values) > self.N:
            raise ValueError("every M must lie in [1, N]")

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
        object.__setattr__(self, "n_values", tuple(int(N) for N in self.n_values))
        _check_method(self.method)
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.time_cap <= 0:
            raise ValueError("time_cap must be positive")
        for N in self.n_values:
            if int(0.8 * N) < 1:
                raise ValueError(f"N={N} too small for the M = floor(0.8 N) rule")

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


def _trial_seed(master: int, M: int, K: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master), int(M), int(K), int(trial)))


def solver_for(method: str):
    """The solve function of ``method``, one of ``METHODS``.

    The module globals are read at call time, so a rebinding of
    ``solve_mhtgd`` here (a test double or a tracing wrapper) is honoured.
    """
    return solve_mhtgd if method == "mhtgd" else solve_chtgd


def _run_trial(method: str, dims: ProblemDims, min_sep: float, is_ca: bool,
               seed: np.random.SeedSequence, config: SolverConfig):
    """One draw-solve-score pass; returns (success, reason, report)."""
    ss_model, ss_mask = seed.spawn(2)
    try:
        model = random_model(dims, min_sep=min_sep, is_ca=is_ca, seed=ss_model)
        truth = synthesize(model, dims)
        mask = sample_mask(dims, seed=ss_mask)
        observed = apply_mask(truth, mask)
        report = solver_for(method)(observed, mask, config, ground_truth=truth)
    except Exception as exc:  # individual failures never abort a scan
        return False, f"{type(exc).__name__}: {exc}", None
    if report.nmse is not None and report.nmse <= SUCCESS_NMSE:
        return True, None, report
    return False, report.stop_reason, report


def run_phase_grid(spec: PhaseGridSpec, csv_path=None) -> PhaseGridResult:
    """Success rates over the (M, K) grid; optionally persisted as CSV."""
    cells = []
    for M in spec.m_values:
        for K in spec.k_values:
            dims = ProblemDims(N=spec.N, L=spec.L, K=K, M=M)
            cell = PhaseCell(M=M, K=K, trials=spec.trials, successes=0)
            for trial in range(spec.trials):
                seed = _trial_seed(spec.seed, M, K, trial)
                cfg = SolverConfig(seed=int(seed.generate_state(1)[0]))
                ok, reason, _ = _run_trial(spec.method, dims, spec.min_sep,
                                           spec.is_ca, seed, cfg)
                cell.outcomes.append(ok)
                if ok:
                    cell.successes += 1
                else:
                    cell.failure_reasons.append((trial, reason))
            cells.append(cell)
    result = PhaseGridResult(spec=spec, cells=cells)
    if csv_path is not None:
        result.csv_path = _write_phase_csv(result, Path(csv_path))
    return result


def run_timing(spec: TimingSpec, csv_path=None) -> TimingResult:
    """Median per-iteration solve times per N and the log-log slope fit.

    Runs whose total wall time exceeds ``spec.time_cap`` are excluded from
    the medians but still counted in the ``excluded`` column.
    """
    rows = []
    sizes = []
    med_iters = []
    for N in spec.n_values:
        M = spec.m_for(N)
        dims = ProblemDims(N=N, L=spec.L, K=spec.K, M=M)
        totals, per_iter = [], []
        successes = excluded = 0
        for trial in range(spec.trials):
            seed = _trial_seed(spec.seed, M, spec.K, trial)
            cfg = SolverConfig(seed=int(seed.generate_state(1)[0]))
            ok, _, report = _run_trial(spec.method, dims, spec.min_sep_mult / N,
                                       spec.method == "chtgd", seed, cfg)
            if report is not None and report.total_seconds > spec.time_cap:
                excluded += 1
                continue
            if ok and report.iter_seconds:
                successes += 1
                totals.append(report.total_seconds)
                per_iter.append(float(np.median(report.iter_seconds)))
        row = TimingRow(
            N=N, M=M, trials=spec.trials, successes=successes, excluded=excluded,
            median_total_seconds=float(np.median(totals)) if totals else None,
            median_iter_seconds=float(np.median(per_iter)) if per_iter else None,
        )
        rows.append(row)
        if row.median_iter_seconds is not None:
            sizes.append(N)
            med_iters.append(row.median_iter_seconds)
    slope = None
    if len(sizes) >= 2:
        slope = float(np.polyfit(np.log(sizes), np.log(med_iters), 1)[0])
    result = TimingResult(spec=spec, rows=rows, slope=slope)
    if csv_path is not None:
        result.csv_path = _write_timing_csv(result, Path(csv_path))
    return result


# ---------- persistence ----------


def _spec_json(spec) -> str:
    d = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(spec).items()}
    return json.dumps(d, sort_keys=True)


def _header_lines(spec) -> list:
    return [
        f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"# spec: {_spec_json(spec)}",
    ]


def _write_phase_csv(result: PhaseGridResult, path: Path) -> Path:
    lines = _header_lines(result.spec)
    lines.append("M,K,trials,successes,rate")
    for c in result.cells:
        lines.append(f"{c.M},{c.K},{c.trials},{c.successes},{c.rate:.6g}")
    path.write_text("\n".join(lines) + "\n")
    _write_phase_plot(path)
    return path


def _write_timing_csv(result: TimingResult, path: Path) -> Path:
    lines = _header_lines(result.spec)
    lines.append("N,M,trials,successes,excluded,median_total_seconds,median_iter_seconds")
    for r in result.rows:
        tot = "" if r.median_total_seconds is None else f"{r.median_total_seconds:.6g}"
        per = "" if r.median_iter_seconds is None else f"{r.median_iter_seconds:.6g}"
        lines.append(f"{r.N},{r.M},{r.trials},{r.successes},{r.excluded},{tot},{per}")
    if result.slope is not None:
        lines.append(f"# loglog_slope: {result.slope:.4f}")
    path.write_text("\n".join(lines) + "\n")
    _write_timing_plot(path)
    return path


def _plot_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".gp")


def _write_phase_plot(csv_path: Path) -> Path:
    gp = _plot_path(csv_path)
    gp.write_text(
        "\n".join([
            "set datafile separator comma",
            "set datafile commentschars '#'",
            f"set title 'success rate: {csv_path.name}'",
            "set xlabel 'K'",
            "set ylabel 'M'",
            "set cbrange [0:1]",
            "set view map",
            f"splot '{csv_path.name}' using 2:1:5 with points pt 5 ps 3 palette notitle",
        ]) + "\n")
    return gp


def _write_timing_plot(csv_path: Path) -> Path:
    gp = _plot_path(csv_path)
    gp.write_text(
        "\n".join([
            "set datafile separator comma",
            "set datafile commentschars '#'",
            f"set title 'median per-iteration time: {csv_path.name}'",
            "set xlabel 'N'",
            "set ylabel 'seconds per iteration'",
            "set logscale xy",
            f"plot '{csv_path.name}' using 1:7 with linespoints pt 7 notitle",
        ]) + "\n")
    return gp
