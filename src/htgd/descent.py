"""Backtracking descent and the plumbing both factorisation solvers share.

The iteration is Z <- Z - eta * D along a solver's direction D, with G
the gradient at Z and slope = Re<G, D>.  Plain gradient descent takes
D = G, so slope = ||G||_F^2; the constant-amplitude solver scales G by
the inverse of each channel's Gram (:mod:`htgd.chtgd`).  eta comes from
an Armijo search: accept the first eta with

    f(Z - eta * D) <= f(Z) - DECREASE * eta * slope   and   f(Z - eta * D) < f(Z),

shrinking eta by ``SHRINK`` up to ``MAX_BACKTRACKS`` times.  A
:class:`Line` may carry its own first trial: a quasi-Newton direction is
already scaled to the curvature, so mhtgd's L-BFGS lines start at eta = 1
(:mod:`htgd.mhtgd`).  A line without one starts as follows.  The first
search starts at the smallest power of two at or above 4 f / slope, 8
times the Polyak step f / (2 slope), and at most ``STEP0``.  It is on the
grid of halvings from ``STEP0``, and the search accepts the first trial
that passes, so it accepts the step a search from ``STEP0`` would whenever
that step is at or below the start: along mhtgd's first line, plain G
from the init, a search from ``STEP0`` tried 9-14 steps and accepted
2**-8 to 2**-13, and this start takes 3-4 of them.  Every later search
starts at the two-point (Barzilai-Borwein, BB2) step of the last accepted
step eta_prev and the last two directions, with d = D_prev - D,

    eta0 = min(max(eta_prev * Re<D_prev, d> / ||d||^2, SHRINK**2 * eta_prev),
               STEP_CAP),         STEP_CAP = STEP0 * GROWTH**8,

and falls back to min(GROWTH * eta_prev, STEP_CAP) when that
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
state is a :class:`Trial`, which holds one stacked complex array.
The steps are absolute, so :func:`weigh_observations` divides the data by
2**e, e = round(log2(RMS / sqrt(K))) of the observed samples, and
:func:`solver_report` scales back; powers of two are exact, so a solve of
2**k x runs the descent of x bit for bit.

Stopping: relative change of the reconstructed signal between accepted
iterates falls below ``tol``, or ``max_iter`` accepted steps.  A search
that fails where every trial that changed the objective raised it has met
the objective's rounding floor and also stops as converged.  Other
exhausted backtracking and non-finite iterates are reported through
``SolverReport.stop_reason`` rather than raised; non-finite observed
samples are rejected up front by :func:`prepare_observed` with
``NumericalError``.

A solver is its factorisation, objective, gradient with its direction, and
factor transforms; around them it calls :func:`weigh_observations`,
:func:`start_point`, :func:`run_descent`, :func:`gradient_line` and
:func:`solver_report` from here.  :func:`start_point` transforms the start
state once into a Trial with its lifts.  The gradient call reads them and
hands :func:`run_descent` the line, whose trials make their own lifts,
and the signal x = h / omega that the state reconstructs, which the
stopping rule reads.  :func:`run_descent` returns a :class:`SolverReport`
at the descent's scale and layout, and :func:`solver_report` maps that
same record to the user's; a new result field is declared once, on
:class:`SolverReport`.

Cost of one iteration.  The solvers' lifts G*(A B^H) and W*(C C^H) read
the factors only through their row FFTs F, which are real-linear in the
state, so F(Z - eta D) = F(Z) - eta F(D).  :func:`gradient_line` thus
transforms one array, the new direction, at a cost of O(L K N log N +
L^2 K^2 N) with the gradient, and returns a :class:`Line` whose trial
points (:class:`Trial`) form their transforms F - eta F(D) with no
forward FFT.  Each trial makes its lifts from them, as a start point
does, through ``operators.adjoints_from_transforms``: one inverse FFT of
2L rows (mhtgd) or L + 1 rows (chtgd) and two K-sums, O(L K N log N),
then its objective, O(L N + L^2 K^2 N).  The accepted trial hands its
transforms and lifts to the next gradient call, and in ``Trial.carry``
the K x K Grams and masked residual its objective evaluation made, so
that call makes none of them again.  A search takes about 1.1-1.4
trials, so these direct lifts cost less than lifts taken along the line
as quadratics in eta, whose coefficients need four or five more K-sums
and an inverse FFT of twice the rows per line.

Lifetimes.  No point or line outlives its successor's making: a rejected
trial is freed before the next trial is made, and the last line, with the
state and transforms its trials were made from, before the next line is.
The gradient is freed before the direction is transformed.  So a search
holds the state and its transforms, the line's direction and its
transforms, the last direction and one trial; at N=255, L=32, K=6 a few
chtgd iterations peak at 5.1 MB of numpy arrays instead of 6.1 MB.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import operators as ops
from .errors import NumericalError
from .retrieval import nmse
from .signals import MultichannelSignal, ProblemDims, SamplingMask, check_int

STOP_CONVERGED = "converged"
STOP_MAX_ITER = "max_iter"
STOP_LINE_SEARCH = "line_search_failure"
STOP_NUMERICAL = "numerical_failure"


STEP0 = 1.0
SHRINK = 0.5
DECREASE = 1e-4
GROWTH = 2.0
MAX_BACKTRACKS = 50
STEP_CAP = STEP0 * GROWTH**8


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iter: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:  # NaN too: no change would ever stop the descent
            raise ValueError(f"tol must be positive, got {self.tol}")
        check_int("max_iter", self.max_iter, 1)
        check_int("seed", self.seed, 0)


@dataclass
class SolverReport:
    """Outcome of one solver run, and the one result type of the descent.

    :func:`run_descent` returns it at the descent's scale and layout:
    ``x_hat`` is the (L, full_N) signal of data / 2**e and the objective
    trace is that of the scaled data.  :func:`solver_report` maps it to the
    user's: ``x_hat`` (N, L) at the user's scale, the trace times 4**e, and
    ``nmse``.
    """

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

    yT: np.ndarray     # (L, full_N): omega * x / 2**e on the mask, zero elsewhere
    maskb: np.ndarray  # (full_N,) bool
    p: float           # M / full_N
    w: np.ndarray      # omega, (full_N,)
    e: int = 0         # the data are the user's divided by 2**e


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
    return Observed(yT, maskb, dims.p, ops.weight_vector(dims.full_N).omega)


def weigh_observations(observations: MultichannelSignal, mask: SamplingMask) -> Observed:
    """:func:`prepare_observed` on omega * x (x zero-padded to odd length), then / 2**e."""
    dims = observations.dims
    w = ops.weight_vector(dims.full_N).omega
    x_int = np.zeros((dims.L, dims.full_N), dtype=complex)
    x_int[:, :dims.N] = observations.data.T
    with np.errstate(over="ignore", invalid="ignore"):  # inf on the mask: reported below
        y = w * x_int
    obs = prepare_observed(y.T, mask, dims)  # the check sees the user's scale
    # e = round(log2(RMS / sqrt(K))), exactly, so e(2**k x) = e(x) + k: xs = x / 2**top has
    # mean square / K = m 2**q, m in [1/2, 1), so log2 RMS in [(q-1)/2, q/2) rounds to q // 2
    x = observations.data[mask.indices - 1]
    top = ops.top_exponent(x)
    xs = ops.ldexp(x, -top)
    e = top + int(np.frexp(np.vdot(xs, xs).real / (xs.size * dims.K))[1]) // 2
    yT = ops.ldexp(obs.yT, -e)
    return obs._replace(yT=yT, e=e)


class Trial(NamedTuple):
    """A point of the descent, as a solver's objective and gradient take it.

    ``z`` is the state and ``F`` its factor transforms, a solver's
    ``transforms(z)``; ``h`` and ``hw`` are the solver's lifts there, made
    from F by ``operators.adjoints_from_transforms``.  A start point
    (:func:`start_point`) transforms z itself; a line-search trial
    z - eta * D forms F from its line's transforms (:func:`gradient_line`).
    ``carry`` starts empty; a solver's objective leaves in it what its
    gradient reads again at the same point (the Grams and the masked
    residual), and the gradient takes them out, so they are freed before
    the next line search; a gradient at a point the objective has not seen
    makes them itself.
    """

    z: np.ndarray
    h: np.ndarray
    hw: np.ndarray
    F: np.ndarray
    carry: dict


def _point(z: np.ndarray, F: np.ndarray, obs: Observed, kernel_args: Callable) -> Trial:
    """The Trial at ``z`` with transforms ``F``, and its lifts made from them."""
    h, hw = ops.adjoints_from_transforms(*kernel_args(F), (len(obs.w) + 1) // 2)
    return Trial(z, h, hw, F, {})


def start_point(z: np.ndarray, obs: Observed, transforms: Callable,
                kernel_args: Callable) -> Trial:
    """The Trial at the state array ``z``: its transforms F, made here, and the
    lifts (h, hw) from them."""
    return _point(z, transforms(z), obs, kernel_args)


class Line(NamedTuple):
    """A descent direction, ``at(eta)``, the trial point state - eta * direction,
    and ``slope`` = Re<G, direction> for the gradient G at the state.

    Along the line f(eta) = f(0) - 2 eta slope + O(eta^2), since G is the
    conjugate Wirtinger gradient; the direction is G itself for plain
    gradient descent, and slope = ||G||^2.  :func:`gradient_line` builds it
    with Trial points that make their lifts from the line's transforms, so
    a trial costs one inverse FFT and no forward FFT.
    ``first`` is the line's first trial step; ``None`` leaves it to
    :func:`armijo_step`'s BB2 rule.
    """

    direction: np.ndarray
    at: Callable[[float], object]
    slope: float
    first: Optional[float] = None


def gradient_line(state: Trial, obs: Observed, transforms: Callable, kernel_args: Callable,
                  gradient: Callable) -> tuple:
    """(Line, x) at the Trial ``state``, from a solver's ``transforms(z)``,
    ``kernel_args(F)`` and ``gradient(t, obs)``, which returns (G, D,
    first): the gradient at the Trial t, read from its transforms ``t.F``
    and lifts, the direction to descend along and the Line's first trial
    step (None for :func:`armijo_step`'s BB2 rule); x = h / omega is the
    signal the state reconstructs, (L, full_N).

    FD, of the direction, is the one transform made here.  The trial at eta
    forms its transforms F - eta FD and makes its lifts from them, so the
    accepted trial hands both to the next call unchanged.
    """
    z, F = state.z, state.F
    grad, direction, first = gradient(state, obs)
    slope = float(np.vdot(grad, direction).real)
    del grad  # freed before the direction is transformed
    FD = transforms(direction)

    def at(eta: float) -> Trial:
        # one buffer, and FD is not scaled in place: every trial of the line shares it
        Ft = np.multiply(FD, -eta)
        Ft += F
        return _point(z - eta * direction, Ft, obs, kernel_args)

    return Line(direction, at, slope, first), state.h / obs.w


class ArmijoResult(NamedTuple):
    accepted: bool
    eta: float
    state: object
    value: float
    minimal: bool = False  # a failed search whose trials rose above f_curr and never fell


def _first_trial(direction: np.ndarray, d_prev: Optional[np.ndarray], eta_prev: float) -> float:
    """BB2 from ``eta_prev`` and the directions ``d_prev`` -> ``direction``, at
    least SHRINK**2 * eta_prev and at most STEP_CAP; GROWTH * eta_prev,
    capped, when there is no ``d_prev`` or the quotient has no finite
    positive numerator and denominator."""
    eta = GROWTH * eta_prev
    if d_prev is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: growth rule
            d = d_prev - direction
            num = float(np.vdot(d_prev, d).real)
            den = float(np.vdot(d, d).real)
        if 0.0 < num < np.inf and 0.0 < den < np.inf:
            eta = max(eta_prev * (num / den), SHRINK**2 * eta_prev)
    return min(eta, STEP_CAP)


def _first_search_trial(f: float, slope: float) -> float:
    """The first trial of a descent's first search: the smallest power of two
    at or above 4 f / slope, 8 times the Polyak step f / (2 slope), and at
    most STEP0; STEP0 when that quotient is not finite and positive."""
    q = 4.0 * f / slope if slope > 0.0 else math.inf
    if not 0.0 < q < math.inf:
        return STEP0
    m, e = math.frexp(q)  # q = m 2**e, m in [1/2, 1)
    return min(STEP0, math.ldexp(1.0, e - 1 if m == 0.5 else e))


def armijo_step(state, line: Line, f_curr: float,
                objective: Callable[[object], float], eta_prev: float,
                d_prev: Optional[np.ndarray] = None) -> ArmijoResult:
    """One backtracking step from the warm-started trial size.

    Every trial point ``line.at(eta)`` goes through ``objective``, and the
    first one to decrease the objective sufficiently,

        f_new <= f_curr - DECREASE * eta * line.slope   and   f_new < f_curr,

    is accepted; the strict decrease keeps a flat objective, where the first
    test holds once DECREASE * eta * slope is below half an ulp of f_curr,
    from passing for progress.  The first trial is ``line.first`` when the
    line carries one; otherwise it is the floored BB2 step from ``eta_prev``
    and the previous accepted iterate's direction ``d_prev``, or
    min(GROWTH * eta_prev, STEP_CAP) without one (see the module
    docstring); ``run_descent`` passes ``d_prev`` from its second search on.
    A zero slope is accepted immediately with ``state`` unchanged.
    ``accepted=False`` means MAX_BACKTRACKS shrinks never met the test; it
    is ``minimal`` when some trial rose above f_curr and none fell below,
    so that f_curr is a minimum along the line to working precision (the
    objective's rounding floor), not a search that found no descent.
    """
    eta = _first_trial(line.direction, d_prev, eta_prev) if line.first is None else line.first
    if line.slope == 0.0:
        return ArmijoResult(True, eta, state, f_curr)
    rose = fell = False
    for _ in range(MAX_BACKTRACKS):
        cand = line.at(eta)
        f_new = objective(cand)
        # NaN fails the comparisons and keeps shrinking
        if f_new <= f_curr - DECREASE * eta * line.slope and f_new < f_curr:
            return ArmijoResult(True, eta, cand, f_new)
        rose, fell = rose or f_new > f_curr, fell or f_new < f_curr
        eta *= SHRINK
        del cand  # a rejected trial is freed before the next is made
    return ArmijoResult(False, eta, state, f_curr, rose and not fell)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of the complex array ``x``, bit for bit, by ndarray
    methods: sqrt(re . re + im . im) of the flattened array."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rel_change(x_new: np.ndarray, x_old: np.ndarray) -> float:
    denom = _norm(x_old)
    diff = _norm(x_new - x_old)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return diff / denom


def run_descent(state: Trial,
                objective: Callable[[Trial], float],
                grad_and_signal: Callable[[Trial], tuple],
                cfg: SolverConfig) -> SolverReport:
    """Drive the shared loop from ``state``, a :func:`start_point`, and report it.

    ``grad_and_signal(state)`` returns (Line, x) where x is the signal the
    state reconstructs: the stopping rule compares it between accepted
    iterates and the report's ``x_hat`` is the last one, in the layout and
    at the scale the descent ran in; :func:`solver_report` maps the report
    to the user's N rows and scale.  The Line's trial points are
    the states that ``objective`` and the next ``grad_and_signal`` receive;
    the solvers pass :func:`gradient_line`, which returns both.  The start
    point is held only as ``state``, so its transforms are freed once the
    first step is accepted.  The first line takes its first trial from
    :func:`_first_search_trial` unless it carries its own.
    """
    t_start = time.perf_counter()
    f_curr = objective(state)
    trace = [f_curr]
    iter_seconds: list = []
    line, x_curr = grad_and_signal(state)
    if not np.isfinite(f_curr):
        return SolverReport(x_curr, 0, STOP_NUMERICAL, trace, iter_seconds,
                            time.perf_counter() - t_start)
    if line.first is None:
        line = line._replace(first=_first_search_trial(f_curr, line.slope))
    eta_prev = STEP0  # not read: the first line carries its own first trial
    d_prev = None
    stop_reason = STOP_MAX_ITER
    iters = 0
    for _ in range(cfg.max_iter):
        t0 = time.perf_counter()
        if not np.isfinite(line.direction).all():
            stop_reason = STOP_NUMERICAL
            break
        res = armijo_step(state, line, f_curr, objective, eta_prev, d_prev)
        if not res.accepted:
            stop_reason = STOP_CONVERGED if res.minimal else STOP_LINE_SEARCH
            break
        state, f_curr, eta_prev, d_prev = res.state, res.value, res.eta, line.direction
        # the last line, with the transforms and state its trials were made
        # from, is freed before the next is made
        del line, res
        line, x_new = grad_and_signal(state)
        iters += 1
        trace.append(f_curr)
        iter_seconds.append(time.perf_counter() - t0)
        rel = _rel_change(x_new, x_curr)
        x_curr = x_new
        if rel <= cfg.tol:
            stop_reason = STOP_CONVERGED
            break
    return SolverReport(x_curr, iters, stop_reason, trace, iter_seconds,
                        time.perf_counter() - t_start)


def solver_report(out: SolverReport, e: int, dims: ProblemDims,
                  ground_truth: MultichannelSignal | None = None) -> SolverReport:
    """``out`` of :func:`run_descent` on data / 2**e at the user's scale: x_hat
    times 2**e, trimmed to the user's N rows as (N, L), the objective trace
    times 4**e, and the NMSE against ``ground_truth`` when one is given."""
    x_hat = ops.ldexp(out.x_hat.T[:dims.N], e)
    return replace(out, x_hat=x_hat,
                   objective_trace=ops.ldexp(out.objective_trace, 2 * e).tolist(),
                   nmse=None if ground_truth is None else nmse(x_hat, ground_truth.data))
