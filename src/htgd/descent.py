"""Backtracking gradient descent and the plumbing both factorisation solvers share.

The iteration is Z <- Z - eta * grad with eta from an Armijo search:
accept the first eta with

    f(Z - eta * G) <= f(Z) - c * eta * ||G||_F^2,

shrinking eta by ``shrink`` up to ``max_backtracks`` times.  The first
search starts at ``step0``; every later one starts at the two-point
(Barzilai-Borwein, BB2) step of the last accepted step eta_prev and the
last two gradients, with d = G_prev - G,

    eta0 = min(max(eta_prev * Re<G_prev, d> / ||d||^2, shrink**2 * eta_prev),
               step0 * growth**8),

and falls back to min(growth * eta_prev, step0 * growth**8) when that
quotient has no finite positive numerator and denominator.  BB2 follows
the local curvature, so most first trials are accepted: a search takes
about 1.3-1.5 objective evaluations per iteration, against about 2 for
the growth rule alone.  The floor keeps the first trial within two
backtracks of eta_prev.  Without it, where the curvature along the last
step is nearly indefinite, small BB2 quotients alternating with growth
fallbacks shrank the step geometrically to about 1e-7 while the
gradient stayed large, and the relative-change rule then stopped the
descent as converged far from a minimiser (4 of 2,800 trials at N=65,
L=5, K=4, M=35; none with the floor).  A single step size is shared by all channels; the
state is one stacked complex array, or a :class:`Trial` that holds it.

Stopping: relative change of the reconstructed signal between accepted
iterates falls below ``tol``, or ``max_iter`` accepted steps.  Exhausted
backtracking and non-finite iterates are reported through
``SolverReport.stop_reason`` rather than raised; non-finite observed
samples are rejected up front by :func:`prepare_observed` with
``NumericalError``.

A solver is its factorisation, objective, gradient and factor transforms;
around them it calls :func:`weigh_observations`, :func:`run_descent`,
:func:`gradient_line` and :func:`solver_report` from here.  The gradient
call hands :func:`run_descent` the line and the signal x = h / omega that
the state reconstructs, which the stopping rule reads.

Cost of one iteration.  The solvers' lifts G*(A B^H) and W*(C C^H) read
the factors only through their row FFTs F, which are real-linear in the
state, so F(Z - eta G) = F(Z) - eta F(G) and the lifts along the line
are quadratics in eta.  The gradient call, :func:`gradient_line`, thus
transforms one array, the new gradient, and returns a :class:`Line`
whose trial points (:class:`Trial`) carry h(eta) = h0 - eta h1 + eta^2
h2; it costs O(L K N log N + L^2 K^2 N).  Each Armijo trial costs
O(L N + L^2 K^2 N) and no FFT, and the accepted trial hands its
transforms F - eta FG to the next gradient call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import operators as ops
from .errors import NumericalError
from .retrieval import nmse
from .signals import MultichannelSignal, ProblemDims, SamplingMask

STOP_CONVERGED = "converged"
STOP_MAX_ITER = "max_iter"
STOP_LINE_SEARCH = "line_search_failure"
STOP_NUMERICAL = "numerical_failure"


@dataclass(frozen=True)
class ArmijoConfig:
    step0: float = 1.0
    shrink: float = 0.5
    decrease: float = 1e-4
    growth: float = 2.0
    max_backtracks: int = 50

    def __post_init__(self):
        if not (0 < self.shrink < 1):
            raise ValueError("shrink must lie in (0, 1)")
        if not (0 < self.decrease < 1):
            raise ValueError("decrease must lie in (0, 1)")
        if self.growth < 1 or self.step0 <= 0 or self.max_backtracks < 1:
            raise ValueError("growth >= 1, step0 > 0, max_backtracks >= 1 required")

    @property
    def step_cap(self) -> float:
        return self.step0 * self.growth**8


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iter: int = 10_000
    armijo: ArmijoConfig = field(default_factory=ArmijoConfig)
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")


@dataclass
class SolverReport:
    """Outcome of one solver run; ``x_hat`` keeps the user's N rows."""

    x_hat: np.ndarray
    iterations: int
    stop_reason: str
    objective_trace: list
    iter_seconds: list
    total_seconds: float
    nmse: Optional[float] = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == STOP_CONVERGED


class Observed(NamedTuple):
    """Weighted observations in the layout both objectives read."""

    y: np.ndarray      # (full_N, L): omega * x, x zero-padded to odd length
    yT: np.ndarray     # (L, full_N): y^T on the mask, zero elsewhere
    maskb: np.ndarray  # (full_N,) bool
    p: float           # M / full_N
    w: np.ndarray      # omega, (full_N,)


def prepare_observed(y: np.ndarray, mask: SamplingMask, dims: ProblemDims) -> Observed:
    """Check the weighted signal ``y`` (full_N, L) against ``mask`` and ``dims``.

    Raises ``ValueError`` on a shape or mask mismatch and ``NumericalError``
    when an observed sample of y / p is not finite; rows off the mask are
    never read, so they may hold anything.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != (dims.full_N, dims.L):
        raise ValueError(f"expected weighted signal of shape ({dims.full_N}, {dims.L}), got {y.shape}")
    if mask.N != dims.N:
        raise ValueError(f"mask covers N={mask.N}, dims has N={dims.N}")
    if mask.M != dims.M:
        raise ValueError(f"mask has {mask.M} indices, dims expects M={dims.M}")
    maskb = mask.bool_array(dims.full_N)
    yT = np.where(maskb, y.T, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        finite = np.all(np.isfinite(yT / dims.p))
    if not finite:
        raise NumericalError("observed samples contain NaN or inf (after weighting by omega / p)")
    return Observed(y, yT, maskb, dims.p, ops.weight_vector(dims.full_N).omega)


def weigh_observations(observations: MultichannelSignal, mask: SamplingMask) -> Observed:
    """:func:`prepare_observed` on omega * x, with x zero-padded to odd length."""
    dims = observations.dims
    w = ops.weight_vector(dims.full_N).omega
    x_int = np.zeros((dims.L, dims.full_N), dtype=complex)
    x_int[:, :dims.N] = observations.data.T
    with np.errstate(over="ignore", invalid="ignore"):  # inf on the mask: reported below
        y = w * x_int
    return prepare_observed(y.T, mask, dims)


class Trial(NamedTuple):
    """The point z - eta * G of one line search, as a solver's objective takes it.

    ``h`` and ``hw`` are the solver's lifts there; its factor transforms
    are the carried ``F - eta * FG``, formed by :meth:`transforms` only
    when the trial is accepted and the next gradient needs them.
    """

    z: np.ndarray
    h: np.ndarray
    hw: np.ndarray
    F: np.ndarray
    FG: np.ndarray
    eta: float

    def transforms(self) -> np.ndarray:
        return self.F - self.eta * self.FG


class Line(NamedTuple):
    """A gradient ``grad`` and ``at(eta)``, the trial point state - eta * grad.

    A gradient callable may return a Line in place of a plain gradient
    array when it knows a cheaper form of its trial points than the array
    difference (see :func:`gradient_line`).
    """

    grad: np.ndarray
    at: Callable[[float], object]


def _as_line(state, grad) -> Line:
    """``grad`` itself if it is a Line, else the line of the plain array difference."""
    if isinstance(grad, Line):
        return grad
    return Line(grad, lambda eta: state - eta * grad)


def gradient_line(state, obs: Observed, transforms: Callable, kernel_args: Callable,
                  gradient: Callable) -> tuple:
    """(Line, x) at a state array or an accepted Trial, from a solver's
    ``transforms(z)``, ``kernel_args(F)`` and ``gradient(z, F, obs)``;
    x = h0 / omega is the signal the state reconstructs, (L, full_N).

    F is fresh for an array and carried for a Trial; FG, of the gradient,
    is the one transform made here.  A trial then costs no FFT: h(eta) =
    h0 - eta h1 + eta^2 h2, and the same for hw (:func:`operators.line_adjoints`).
    """
    if isinstance(state, Trial):
        z, F = state.z, state.transforms()
    else:
        z, F = state, transforms(state)
    grad, h0, hw0 = gradient(z, F, obs)
    FG = transforms(grad)
    h1, h2, hw1, hw2 = ops.line_adjoints(*kernel_args(F), *kernel_args(FG),
                                         (len(obs.w) + 1) // 2)

    def at(eta: float) -> Trial:
        return Trial(z - eta * grad, h0 - eta * (h1 - eta * h2),
                     hw0 - eta * (hw1 - eta * hw2), F, FG, eta)

    return Line(grad, at), h0 / obs.w


class ArmijoResult(NamedTuple):
    accepted: bool
    eta: float
    state: object
    value: float


def _first_trial(grad: np.ndarray, g_prev: Optional[np.ndarray], cfg: ArmijoConfig,
                 eta_prev: float) -> float:
    """BB2 from ``eta_prev`` and the gradients ``g_prev`` -> ``grad``, at least
    shrink**2 * eta_prev and at most ``step_cap``; growth * eta_prev, capped,
    when there is no ``g_prev`` or the quotient has no finite positive
    numerator and denominator."""
    eta = cfg.growth * eta_prev
    if g_prev is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: growth rule
            d = g_prev - grad
            num = float(np.vdot(g_prev, d).real)
            den = float(np.vdot(d, d).real)
        if 0.0 < num < np.inf and 0.0 < den < np.inf:
            eta = max(eta_prev * (num / den), cfg.shrink**2 * eta_prev)
    return min(eta, cfg.step_cap)


def armijo_step(state, grad, f_curr: float,
                objective: Callable[[object], float],
                cfg: ArmijoConfig, eta_prev: float,
                g_prev: Optional[np.ndarray] = None) -> ArmijoResult:
    """One backtracking step from the warm-started trial size.

    ``grad`` is a gradient array or a :class:`Line`; every trial point goes
    through ``objective``.  The first trial is the floored BB2 step from
    ``eta_prev`` and the previous accepted iterate's gradient ``g_prev``,
    or min(growth * eta_prev, step_cap) without one (see the module
    docstring); ``run_descent`` passes ``g_prev`` from its second search
    on.  A zero gradient is accepted immediately with the state
    unchanged.  ``accepted=False`` means ``max_backtracks`` shrinks never
    met the sufficient-decrease condition.
    """
    line = _as_line(state, grad)
    gnorm_sq = float(np.vdot(line.grad, line.grad).real)
    eta = _first_trial(line.grad, g_prev, cfg, eta_prev)
    if gnorm_sq == 0.0:
        return ArmijoResult(True, eta, state, f_curr)
    for _ in range(cfg.max_backtracks):
        cand = line.at(eta)
        f_new = objective(cand)
        # NaN fails the comparison and keeps shrinking
        if f_new <= f_curr - cfg.decrease * eta * gnorm_sq:
            return ArmijoResult(True, eta, cand, f_new)
        eta *= cfg.shrink
    return ArmijoResult(False, eta, state, f_curr)


class DescentOutcome(NamedTuple):
    state: object
    x_hat: np.ndarray
    iterations: int
    stop_reason: str
    objective_trace: list
    iter_seconds: list
    total_seconds: float


def _rel_change(x_new: np.ndarray, x_old: np.ndarray) -> float:
    denom = np.linalg.norm(x_old)
    diff = np.linalg.norm(x_new - x_old)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return float(diff / denom)


def run_descent(state0: np.ndarray,
                objective: Callable[[np.ndarray], float],
                grad_and_signal: Callable[[np.ndarray], tuple],
                cfg: SolverConfig) -> DescentOutcome:
    """Drive the shared loop.

    ``grad_and_signal(state)`` returns (gradient, x) where x is the signal
    the state reconstructs: the stopping rule compares it between accepted
    iterates and ``x_hat`` is the last one.  The gradient is an array, or a
    :class:`Line` whose trial points are then the states that ``objective``
    and the next ``grad_and_signal`` receive; the solvers pass
    :func:`gradient_line`, which returns both.
    """
    t_start = time.perf_counter()
    state = state0
    f_curr = objective(state)
    trace = [f_curr]
    iter_seconds: list = []
    grad, x_curr = grad_and_signal(state)
    if not np.isfinite(f_curr):
        return DescentOutcome(state, x_curr, 0, STOP_NUMERICAL, trace, iter_seconds,
                              time.perf_counter() - t_start)
    eta_prev = cfg.armijo.step0 / cfg.armijo.growth  # first trial is exactly step0
    g_prev = None
    stop_reason = STOP_MAX_ITER
    iters = 0
    for _ in range(cfg.max_iter):
        t0 = time.perf_counter()
        line = _as_line(state, grad)
        if not np.all(np.isfinite(line.grad)):
            stop_reason = STOP_NUMERICAL
            break
        res = armijo_step(state, line, f_curr, objective, cfg.armijo, eta_prev, g_prev)
        if not res.accepted:
            stop_reason = STOP_LINE_SEARCH
            break
        state, f_curr, eta_prev, g_prev = res.state, res.value, res.eta, line.grad
        grad, x_new = grad_and_signal(state)
        iters += 1
        trace.append(f_curr)
        iter_seconds.append(time.perf_counter() - t0)
        rel = _rel_change(x_new, x_curr)
        x_curr = x_new
        if rel <= cfg.tol:
            stop_reason = STOP_CONVERGED
            break
    return DescentOutcome(state, x_curr, iters, stop_reason, trace, iter_seconds,
                          time.perf_counter() - t_start)


def solver_report(out: DescentOutcome, dims: ProblemDims,
                  ground_truth: MultichannelSignal | None = None) -> SolverReport:
    """``out`` with x_hat trimmed to the user's N rows, plus NMSE against
    ``ground_truth`` when one is given."""
    x_hat = out.x_hat.T[:dims.N].copy()
    return SolverReport(
        x_hat=x_hat,
        iterations=out.iterations,
        stop_reason=out.stop_reason,
        objective_trace=out.objective_trace,
        iter_seconds=out.iter_seconds,
        total_seconds=out.total_seconds,
        nmse=None if ground_truth is None else nmse(x_hat, ground_truth.data),
    )
