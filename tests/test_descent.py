import dataclasses
import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htgd import chtgd, mhtgd
from htgd import operators as ops
from htgd.chtgd import solve_chtgd
from htgd.descent import (
    STOP_CONVERGED,
    STOP_LINE_SEARCH,
    STOP_MAX_ITER,
    STOP_NUMERICAL,
    STEP0,
    STEP_CAP,
    Line,
    SolverConfig,
    Trial,
    _rel_change,
    armijo_step,
    gradient_line,
    prepare_observed,
    run_descent,
    start_point,
    weigh_observations,
)
from htgd.errors import NumericalError
from htgd.experiments import PhaseGridSpec, run_phase_grid
from htgd.mhtgd import solve_mhtgd
from htgd.signals import (
    MultichannelSignal,
    ProblemDims,
    apply_mask,
    random_model,
    sample_mask,
    synthesize,
)

SOLVERS = pytest.mark.parametrize("solver,is_ca", [(solve_mhtgd, False), (solve_chtgd, True)],
                                  ids=["mhtgd", "chtgd"])
STOP_REASONS = (STOP_CONVERGED, STOP_MAX_ITER, STOP_LINE_SEARCH, STOP_NUMERICAL)


def quadratic(alpha):
    # f(z) = alpha * ||z||^2, conjugate Wirtinger gradient alpha * z
    def f(z):
        return alpha * float(np.vdot(z, z).real)

    def g(z):
        return alpha * z

    return f, g


def line_of(z, g):
    """The gradient Line of the plain array difference z - eta * g."""
    return Line(g, lambda eta: z - eta * g, float(np.vdot(g, g).real))


def test_armijo_accepts_exact_minimiser_of_quadratic():
    # alpha = 4: trials 1.0, 0.5 fail sufficient decrease, 0.25 lands on the minimum
    f, g = quadratic(4.0)
    z = np.array([1.0 + 1.0j, -2.0j])
    res = armijo_step(z, line_of(z, g(z)), f(z), f, eta_prev=0.5)
    assert res.accepted
    assert res.eta == pytest.approx(0.25)
    assert res.value == pytest.approx(0.0, abs=1e-24)
    np.testing.assert_allclose(res.state, 0.0, atol=1e-12)


def test_armijo_first_trial_is_step0():
    f, g = quadratic(0.25)  # eta = 1 satisfies the condition outright
    z = np.ones(3, dtype=complex)
    res = armijo_step(z, line_of(z, g(z)), f(z), f, eta_prev=0.5)
    assert res.accepted and res.eta == pytest.approx(1.0)


def test_armijo_zero_gradient_accepts_immediately():
    calls = []

    def f(z):
        calls.append(1)
        return 7.0

    z = np.ones(4, dtype=complex)
    res = armijo_step(z, line_of(z, np.zeros_like(z)), 7.0, f, eta_prev=0.5)
    assert res.accepted
    assert res.value == 7.0
    assert res.state is z
    assert not calls


def test_armijo_reports_exhaustion():
    def f_bad(z):
        return 2.0  # above f_curr, so no backtrack can meet the condition

    z = np.ones(2, dtype=complex)
    res = armijo_step(z, line_of(z, z.copy()), 1.0, f_bad, eta_prev=1.0)
    assert not res.accepted
    assert res.state is z and res.value == 1.0


def test_armijo_nan_objective_keeps_shrinking():
    f, g = quadratic(4.0)

    def f_guarded(z):
        val = f(z)
        return val if val < 5.9 else np.nan  # poisons the large-step trials

    z = np.array([1.0 + 0.0j])
    res = armijo_step(z, line_of(z, g(z)), f(z), f_guarded, eta_prev=0.5)
    assert res.accepted and res.eta <= 0.25


def test_armijo_step_cap():
    assert STEP_CAP == 256.0
    f, g = quadratic(1e-6)  # shallow bowl: any step decreases
    z = np.ones(2, dtype=complex)
    res = armijo_step(z, line_of(z, g(z)), f(z), f, eta_prev=1e9)
    assert res.eta <= STEP_CAP


def test_armijo_rejects_a_flat_objective():
    # f = 1 everywhere: no step decreases it, yet once DECREASE * eta * slope is
    # below half an ulp of 1 the sufficient-decrease test alone would hold
    def flat(z):
        return 1.0

    z = np.ones(2, dtype=complex)
    res = armijo_step(z, line_of(z, z.copy()), 1.0, flat, eta_prev=0.5)
    assert not res.accepted and not res.minimal
    assert res.state is z and res.value == 1.0
    out = run_descent(z, flat, lambda z: (line_of(z, z), z), SolverConfig())
    assert out.stop_reason == STOP_LINE_SEARCH and out.iterations == 0


def test_failed_search_at_the_rounding_floor_is_converged():
    # z0 minimises f, but the line claims a slope there, as a gradient made of
    # rounding noise does: every visible step raises f, smaller ones leave it
    # at 1.0 exactly
    z0 = np.ones(2, dtype=complex)

    def f(z):
        return 1.0 + float(np.vdot(z - z0, z - z0).real)

    res = armijo_step(z0, line_of(z0, z0), f(z0), f, eta_prev=0.5)
    assert not res.accepted and res.minimal
    out = run_descent(z0, f, lambda z: (line_of(z, z), z), SolverConfig())
    assert out.stop_reason == STOP_CONVERGED and out.iterations == 0


# NaN tol never stops a descent; 2.5 iterations or seed -1 would fail only inside a solve
@pytest.mark.parametrize("bad", [dict(tol=0.0), dict(tol=-1.0), dict(max_iter=0),
                                 dict(tol=np.nan), dict(max_iter=2.5), dict(max_iter=True),
                                 dict(seed=1.5), dict(seed=-1)])
def test_solver_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def descend_quadratic(alpha, z0, cfg):
    f, g = quadratic(alpha)
    return run_descent(z0, f, lambda z: (line_of(z, g(z)), z), cfg)


def test_run_descent_converges_on_quadratic():
    out = descend_quadratic(4.0, np.array([3.0 + 1.0j, -2.0 + 0.5j]), SolverConfig(tol=1e-9))
    assert out.stop_reason == STOP_CONVERGED
    np.testing.assert_allclose(out.x_hat, 0.0, atol=1e-8)
    # trace is monotone and bookkeeping lines up
    trace = np.asarray(out.objective_trace)
    assert np.all(np.diff(trace) <= 0)
    assert len(trace) == out.iterations + 1
    assert len(out.iter_seconds) == out.iterations
    assert out.total_seconds >= 0


def test_run_descent_max_iter():
    # alpha = 3: both steps move the iterate (rel change 1.5, then 1); the
    # minimiser reached at step 2 would only be confirmed by a third
    out = descend_quadratic(3.0, np.ones(2, dtype=complex), SolverConfig(tol=1e-30, max_iter=2))
    assert out.stop_reason == STOP_MAX_ITER
    assert out.iterations == 2


def test_run_descent_bb_step_lands_on_the_quadratic_minimiser():
    # alpha = 3: step0 = 1 overshoots and 0.5 flips z to -z/2; the BB2 step
    # of the next search is exactly 1/alpha, which lands on 0
    out = descend_quadratic(3.0, np.ones(2, dtype=complex), SolverConfig(tol=1e-30))
    assert out.objective_trace[:3] == [6.0, 1.5, 0.0]
    assert out.stop_reason == STOP_CONVERGED and out.iterations == 3
    assert np.all(out.x_hat == 0)


def first_trial(grad, g_prev, eta_prev):
    """The first eta an Armijo search tries, through a Line whose points are eta."""
    trials = []

    def objective(eta):
        trials.append(eta)
        return np.nan  # rejected: one trial is enough

    # any nonzero slope: the search tries at least one step
    armijo_step(None, Line(grad, lambda eta: eta, 1.0), 0.0, objective, eta_prev, g_prev)
    return trials[0]


def test_armijo_first_trial_is_bb2():
    g = np.array([1.0 - 2.0j, 0.5j])
    # d = g_prev - g = 2g: Re<g_prev, d> / ||d||^2 = 6 / 4
    assert first_trial(g, 3.0 * g, eta_prev=0.25) == 0.375


@pytest.mark.parametrize("f,slope,want", [
    (1.0, 16.0, 0.25),       # 4 f / slope = 0.25, a power of two
    (1.0, 10.0, 0.5),        # 0.4 rounds up to 0.5
    (1.0, 1.0, STEP0),       # 4 is above STEP0
    (0.0, 1.0, STEP0),       # a zero quotient
    (np.inf, 1.0, STEP0),    # not finite
], ids=["power", "rounded", "capped", "zero", "inf"])
def test_armijo_without_d_prev_or_a_lines_first_trial_starts_at_the_first_search_step(
        f, slope, want):
    # the rule of a descent's first search, whatever eta_prev is
    trials = []

    def objective(eta):
        trials.append(eta)
        return np.nan

    line = Line(np.ones(2, dtype=complex), lambda eta: eta, slope)
    armijo_step(None, line, f, objective, eta_prev=8.0)
    assert trials[0] == want


@pytest.mark.parametrize("grad,g_prev", [
    (np.ones(3), np.full(3, 0.5)),       # Re<g_prev, g_prev - g> < 0
    (np.ones(3), np.ones(3)),            # 0 / 0
    (np.full(3, 1e308), np.full(3, -1e308)),  # g_prev - g overflows to -inf
], ids=["negative", "zero", "overflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_armijo_bb_falls_back_to_growth(grad, g_prev):
    assert first_trial(grad.astype(complex), g_prev.astype(complex), eta_prev=0.25) == 0.5


def test_armijo_bb_trial_is_floored_at_two_backtracks():
    g_prev = np.array([1.0 + 1.0j, -0.5j])
    # g = -9 g_prev: d = 10 g_prev, so BB2 = eta_prev / 10 < shrink**2 * eta_prev
    assert first_trial(-9.0 * g_prev, g_prev, eta_prev=1.0) == 0.25


def test_armijo_tries_the_lines_first_trial_before_bb2():
    g = np.array([1.0 - 2.0j, 0.5j])
    trials = []

    def objective(eta):
        trials.append(eta)
        return np.nan

    # BB2 from these directions would be 0.375 (test above); the line's own trial goes first
    armijo_step(None, Line(g, lambda eta: eta, 1.0, first=1.0), 0.0, objective, 0.25, 3.0 * g)
    assert trials[:2] == [1.0, 0.5]
    assert Line(g, None, 1.0).first is None  # and without one, BB2 as before


def test_armijo_bb_trial_is_clamped_to_step_cap():
    g = np.ones(2, dtype=complex)
    # BB2 = 100 * 4 = 400 > step_cap = 256, while growth * eta_prev = 200 is not
    assert first_trial(g, 4.0 / 3.0 * g, eta_prev=100.0) == STEP_CAP == 256.0


def test_run_descent_nonfinite_start():
    def f(z):
        return np.inf

    z0 = np.ones(2, dtype=complex)
    out = run_descent(z0, f, lambda z: (line_of(z, z), z), SolverConfig())
    assert out.stop_reason == STOP_NUMERICAL
    assert out.iterations == 0
    assert out.x_hat.shape == z0.shape


def test_run_descent_line_search_failure_reported():
    z0 = np.ones(2, dtype=complex)

    def f(z):
        return 1.0 if z is z0 else np.nan  # every trial point poisoned

    out = run_descent(z0, f, lambda z: (line_of(z, z), z), SolverConfig())
    assert out.stop_reason == STOP_LINE_SEARCH
    assert out.iterations == 0
    assert len(out.objective_trace) == 1


def test_run_descent_nonfinite_gradient_reported():
    def g(z):
        bad = z.copy()
        bad[0] = np.nan
        return line_of(z, bad), z

    out = run_descent(np.ones(2, dtype=complex), lambda z: 1.0, g, SolverConfig())
    assert out.stop_reason == STOP_NUMERICAL


def test_run_descent_overflowing_slope_reported():
    # a finite direction whose slope ||D||^2 overflows: every trial overflows
    # f too, so without a check on the slope the search would fail as minimal
    # and report convergence
    f, _ = quadratic(1.0)
    out = run_descent(np.ones(2, dtype=complex), f,
                      lambda z: (line_of(z, np.full(2, 1e200, dtype=complex)), z), SolverConfig())
    assert out.stop_reason == STOP_NUMERICAL and out.iterations == 0


def observed_instance(is_ca):
    dims = ProblemDims(N=33, L=2, K=2, M=24)
    sig = synthesize(random_model(dims, min_sep=1.5 / 33, is_ca=is_ca, seed=5), dims)
    mask = sample_mask(dims, seed=(5, 1))
    return dims, sig, mask, apply_mask(sig, mask).data.copy()


@SOLVERS
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])  # 1e308 overflows once weighted
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error, with no numpy warning first
def test_solve_rejects_non_finite_observed_sample(solver, is_ca, bad):
    dims, _, mask, data = observed_instance(is_ca)
    data[mask.indices[0] - 1, 0] = bad
    with pytest.raises(NumericalError, match="NaN or inf"):
        solver(MultichannelSignal(data=data, dims=dims), mask)


@SOLVERS
def test_solve_ignores_nan_on_unobserved_rows(solver, is_ca):
    dims, sig, mask, data = observed_instance(is_ca)
    data[np.setdiff1d(np.arange(dims.N), mask.indices - 1)] = np.nan
    report = solver(MultichannelSignal(data=data, dims=dims), mask, ground_truth=sig)
    assert report.converged
    assert report.nmse <= 1e-6


@SOLVERS
@pytest.mark.parametrize("bad", [np.inf, 1e308])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # off the mask, never weighted into a warning
def test_solve_ignores_inf_on_unobserved_rows(solver, is_ca, bad):
    dims, sig, mask, data = observed_instance(is_ca)
    data[np.setdiff1d(np.arange(dims.N), mask.indices - 1)] = bad
    report = solver(MultichannelSignal(data=data, dims=dims), mask, ground_truth=sig)
    assert report.converged
    assert report.nmse <= 1e-6


# ---------- scale ----------


def scale_instance(is_ca):
    """An instance whose descent needs 33 iterations at unit scale and took
    3,056 at 2**-20 with step sizes that did not follow the data's scale."""
    dims = ProblemDims(N=33, L=2, K=2, M=24)
    sig = synthesize(random_model(dims, min_sep=1.5 / 33, is_ca=is_ca, seed=5), dims)
    mask = sample_mask(dims, seed=1)
    return dims, sig, mask


@functools.cache
def scaled_solve(solver, is_ca, c):
    dims, sig, mask = scale_instance(is_ca)
    observed, truth = (MultichannelSignal(data=c * s.data, dims=dims)
                       for s in (apply_mask(sig, mask), sig))
    return solver(observed, mask, SolverConfig(seed=2), ground_truth=truth)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-200, 200), solver_ca=st.sampled_from([(solve_mhtgd, False),
                                                            (solve_chtgd, True)]))
def test_solve_is_exactly_equivariant_under_powers_of_two(k, solver_ca):
    unit = scaled_solve(*solver_ca, 1.0)
    report = scaled_solve(*solver_ca, 2.0**k)  # exact: a power of two within range
    assert (report.iterations, report.stop_reason) == (unit.iterations, unit.stop_reason)
    assert unit.converged
    np.testing.assert_array_equal(report.x_hat, 2.0**k * unit.x_hat)
    np.testing.assert_array_equal(report.objective_trace,
                                  4.0**k * np.asarray(unit.objective_trace))
    assert report.nmse == unit.nmse


@SOLVERS
@pytest.mark.parametrize("c", [3.7, 1e160, 1e-160])
def test_solve_recovers_at_any_scale(solver, is_ca, c):
    report = scaled_solve(solver, is_ca, c)
    assert report.converged
    assert report.nmse <= 1e-6


# ---------- line search from carried transforms ----------


def start(module, z, obs):
    """The Trial at the state array ``z`` with one solver's pieces."""
    return start_point(z, obs, module._kernel_args)


def grad_and_line(module, state, obs):
    """The shared gradient-line builder with one solver's pieces."""
    return gradient_line(state, obs, module._kernel_args, module._gradient)


def random_state(module, rng, dims):
    """A random K-major solver state: (2, L, K, n) for mhtgd, (L, K, n) for chtgd."""
    shape = (dims.L, dims.K, dims.n)
    if module is mhtgd:
        shape = (2,) + shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), module=st.sampled_from([mhtgd, chtgd]))
def test_trial_objective_matches_direct_evaluation(data, module):
    # a trial point of the line forms its transforms from the line's, with no
    # forward FFT, yet evaluates like Z - eta D itself
    N = data.draw(st.integers(3, 64), label="N")
    L = data.draw(st.integers(1, 4), label="L")
    n = (N + 1 - N % 2 + 1) // 2  # even N is embedded in length N + 1
    K = data.draw(st.integers(1, n - 1), label="K")
    M = data.draw(st.integers(1, N), label="M")
    eta = data.draw(st.floats(1e-6, 256.0), label="eta")
    dims = ProblemDims(N=N, L=L, K=K, M=M)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    y = rng.standard_normal((dims.full_N, L)) + 1j * rng.standard_normal((dims.full_N, L))
    obs = prepare_observed(y, sample_mask(dims, seed=rng.integers(2**32)), dims)
    z = random_state(module, rng, dims)
    line, _ = grad_and_line(module, start(module, z, obs), obs)
    trial = line.at(eta)
    assert isinstance(trial, Trial)
    direct = z - eta * line.direction
    np.testing.assert_array_equal(trial.z, direct)
    fresh = start(module, direct, obs)
    want = module._objective_stacked(fresh, obs)
    assert abs(module._objective_stacked(trial, obs) - want) <= 1e-10 * want
    for got, want in ((trial.F, fresh.F), (trial.h, fresh.h), (trial.hw, fresh.hw)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # the accepted trial's gradient, from carried transforms, is the fresh one
    g_carried, x_carried = grad_and_line(module, trial, obs)
    g_fresh, x_fresh = grad_and_line(module, start(module, direct, obs), obs)
    assert (np.linalg.norm(g_carried.direction - g_fresh.direction)
            <= 1e-9 * np.linalg.norm(g_fresh.direction))
    assert np.linalg.norm(x_carried - x_fresh) <= 1e-10 * np.linalg.norm(x_fresh)


def line_instance(module, seed, dims=ProblemDims(N=15, L=3, K=2, M=10)):
    """(dims, y, mask, obs, z): random weighted data and a random state."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((dims.full_N, dims.L)) + 1j * rng.standard_normal((dims.full_N, dims.L))
    mask = sample_mask(dims, seed=seed)
    return dims, y, mask, prepare_observed(y, mask, dims), random_state(module, rng, dims)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mhtgd_descends_along_its_gradient(seed):
    dims, y, mask, obs, z = line_instance(mhtgd, seed)
    line, _ = grad_and_line(mhtgd, start(mhtgd, z, obs), obs)
    G = mhtgd.grad_f(mhtgd.FactorSetM.from_stacked(z), y, mask, dims).stacked()
    np.testing.assert_array_equal(line.direction, G)
    assert line.slope == np.vdot(G, G).real


def gram_scaling(z):
    """P_l = conj(z_l^H z_l) + DAMPING tr / K I per channel, (L, K, K)."""
    gram = np.swapaxes(z, -2, -1).conj() @ z
    K = z.shape[-1]
    tr = np.trace(gram, axis1=-2, axis2=-1).real
    return gram.conj() + (chtgd.DAMPING * tr / K)[:, None, None] * np.eye(K)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chtgd_line_is_gram_scaled_and_descends_to_first_order(seed):
    dims, y, mask, obs, z = line_instance(chtgd, seed)
    line, _ = grad_and_line(chtgd, start(chtgd, z, obs), obs)
    G = chtgd.grad_g(chtgd.FactorSetC.from_stacked(z), y, mask, dims).stacked()
    D = line.direction
    # in the (L, n, K) layout of the factors: D_l P_l = G_l
    np.testing.assert_allclose(np.swapaxes(D, -2, -1) @ gram_scaling(np.swapaxes(z, -2, -1)),
                               np.swapaxes(G, -2, -1), rtol=0, atol=1e-10 * np.abs(G).max())
    assert line.slope == np.vdot(G, D).real
    assert line.slope > 0
    # f(z - eta D) = f(z) - 2 eta slope + O(eta^2)
    eps = 1e-6
    fm, fp = (chtgd.objective_g(chtgd.FactorSetC.from_stacked(z + s * eps * D), y, mask, dims)
              for s in (-1.0, 1.0))
    assert (fm - fp) / (2 * eps) == pytest.approx(-2.0 * line.slope, rel=1e-5)


def test_chtgd_direction_is_finite_for_a_zero_factor_column():
    dims, y, mask, obs, z = line_instance(chtgd, 3)
    z[:, -1, :] = 0.0  # rank K - 1 in every channel: each Gram is singular
    line, _ = grad_and_line(chtgd, start(chtgd, z, obs), obs)
    assert np.all(np.isfinite(line.direction)) and line.slope > 0
    assert np.all(line.direction[:, -1, :] == 0)


def test_chtgd_solves_with_k_above_the_true_order():
    # a fully observed K = 2 signal solved at K = 4: the init's extra columns are
    # near zero, so the Grams the direction inverts are nearly singular; with
    # damping 1e-8 this solve stopped as converged at NMSE 1.5e-3 after 9 steps
    true = ProblemDims(N=33, L=2, K=2, M=33)
    sig = synthesize(random_model(true, min_sep=1.5 / 33, is_ca=True, seed=5), true)
    dims = ProblemDims(N=33, L=2, K=4, M=33)
    mask = sample_mask(dims, seed=(5, 1))
    observed = MultichannelSignal(data=apply_mask(sig, mask).data, dims=dims)
    obs = weigh_observations(observed, mask)
    init = chtgd.spectral_init_ca(obs.yT.T, mask, dims, seed=0)
    line, _ = grad_and_line(chtgd, start(chtgd, init.stacked(), obs), obs)
    assert np.all(np.isfinite(line.direction)) and line.slope > 0
    report = solve_chtgd(observed, mask, SolverConfig(),
                         ground_truth=MultichannelSignal(data=sig.data, dims=dims))
    assert report.converged and report.nmse <= 1e-6


def test_carried_transforms_do_not_drift_over_a_long_descent():
    # a hard instance (M = 6 of 33), 3,000 accepted steps, each gradient line
    # built from the transforms the previous trial carried; the first-search
    # rule (no d_prev) keeps accepting steps that long
    dims = ProblemDims(N=33, L=2, K=3, M=6)
    sig = synthesize(random_model(dims, min_sep=1.5 / 33, seed=0), dims)
    mask = sample_mask(dims, seed=(0, 1))
    obs = weigh_observations(apply_mask(sig, mask), mask)
    init = mhtgd.spectral_init(obs.yT.T, mask, dims, seed=2)

    def objective(state):
        return mhtgd._objective_stacked(state, obs)

    state, eta = start(mhtgd, init.stacked(), obs), 0.5
    f_curr = objective(state)
    for _ in range(3000):
        line, _ = grad_and_line(mhtgd, state, obs)
        res = armijo_step(state, line, f_curr, objective, eta)
        assert res.accepted and isinstance(res.state, Trial)
        state, f_curr, eta = res.state, res.value, res.eta
    carried = state.F
    fresh = ops.row_transforms(state.z)
    assert np.linalg.norm(carried - fresh) <= 1e-10 * np.linalg.norm(fresh)
    # the lifts the gradients read, made at each trial from the carried
    # transforms, are as close to those of a fresh start point
    lifts = start(mhtgd, state.z, obs)
    for got, want in ((state.h, lifts.h), (state.hw, lifts.hw)):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("module", [mhtgd, chtgd], ids=["mhtgd", "chtgd"])
def test_every_trials_transforms_are_the_row_transforms_of_its_state(module):
    # a start point transforms its state; a line trial forms F - eta FD, equal
    # up to roundoff, and carries no block a solver derives from them
    dims, y, mask, obs, z = line_instance(module, 5)
    state = start(module, z, obs)
    np.testing.assert_array_equal(state.F, ops.row_transforms(z))
    line, _ = grad_and_line(module, state, obs)
    trial = line.at(0.3)
    want = ops.row_transforms(trial.z)
    assert trial.F.shape == want.shape
    assert np.linalg.norm(trial.F - want) <= 1e-12 * np.linalg.norm(want)


@SOLVERS
def test_solve_transforms_its_start_state_once(solver, is_ca, monkeypatch):
    # one transform for the start state, then one per gradient: the objective
    # and the first gradient both read the start point's carried transforms,
    # and every trial forms its own from its line's; each point the objective
    # evaluates, the start point and every trial, makes its lifts once
    module = chtgd if is_ca else mhtgd
    transforms, seen = ops.row_transforms, []
    adjoints, lifted = ops.adjoints_from_transforms, []
    objective, evaluated = module._objective_stacked, []

    def spy(z):
        seen.append(z.copy())
        return transforms(z)

    def lift_spy(*args):
        lifted.append(args)
        return adjoints(*args)

    def objective_spy(t, obs):
        evaluated.append(t.z)
        return objective(t, obs)

    monkeypatch.setattr(ops, "row_transforms", spy)
    monkeypatch.setattr(ops, "adjoints_from_transforms", lift_spy)
    monkeypatch.setattr(module, "_objective_stacked", objective_spy)
    dims, sig, mask = scale_instance(is_ca)
    report = solver(apply_mask(sig, mask), mask, SolverConfig(seed=2))
    assert report.converged
    assert sum(np.array_equal(z, seen[0]) for z in seen) == 1
    assert len(seen) == 1 + (report.iterations + 1)
    assert len(lifted) == len(evaluated) > report.iterations


@pytest.mark.parametrize("module", [mhtgd, chtgd], ids=["mhtgd", "chtgd"])
def test_gradient_from_the_objectives_carry_is_the_fresh_gradient(module):
    # the objective leaves its Grams and masked residual on the Trial; the
    # gradient that reads them is the one that makes its own, bit for bit
    dims, y, mask, obs, z = line_instance(module, 4)
    carried = start(module, z, obs)
    module._objective_stacked(carried, obs)
    assert carried.carry
    fresh = start(module, z, obs)
    for got, want in zip(module._gradient(carried, obs)[:2],
                         module._gradient(fresh, obs)[:2]):
        np.testing.assert_array_equal(got, want)
    # the same at a line trial, against that trial without its carry
    line, _ = grad_and_line(module, carried, obs)
    trial = line.at(1e-3)
    module._objective_stacked(trial, obs)
    assert trial.carry
    for got, want in zip(module._gradient(trial, obs)[:2],
                         module._gradient(trial._replace(carry={}), obs)[:2]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("module,solver,is_ca,algebra", [
    (mhtgd, solve_mhtgd, False, "_grams"),
    (chtgd, solve_chtgd, True, "_point_algebra")], ids=["mhtgd", "chtgd"])
def test_solve_makes_the_point_algebra_once_per_objective_evaluation(monkeypatch, module,
                                                                     solver, is_ca, algebra):
    # every gradient reads the Grams its point's objective made: none makes its own
    objective, gradient = module._objective_stacked, module._gradient
    make = getattr(module, algebra)
    evaluations, made, depth = [], [], []

    def counted_objective(t, obs):
        evaluations.append(t)
        return objective(t, obs)

    def watched_gradient(*args):
        depth.append(None)
        try:
            return gradient(*args)
        finally:
            depth.pop()

    def counted_algebra(*args):
        made.append(bool(depth))
        return make(*args)

    monkeypatch.setattr(module, "_objective_stacked", counted_objective)
    monkeypatch.setattr(module, "_gradient", watched_gradient)
    monkeypatch.setattr(module, algebra, counted_algebra)
    dims, sig, mask = scale_instance(is_ca)
    report = solver(apply_mask(sig, mask), mask, SolverConfig(seed=2))
    assert report.converged and report.iterations > 5
    assert len(made) == len(evaluations) > report.iterations
    assert not any(made)  # never inside a gradient


@pytest.mark.parametrize("master,trial", [
    (3638739982, 0), (1050108669, 2), (1570542204, 2), (1054474502, 3),
])
def test_bb_steps_do_not_stall_into_a_false_convergence(master, trial):
    # trials of the N=65 L=5 K=4 M=35 cell where unfloored BB2 steps shrank to
    # about 1e-7 with the gradient norm near 100, and the relative-change rule
    # stopped as converged at NMSE 0.09-0.27
    spec = PhaseGridSpec(N=65, L=5, m_values=(35,), k_values=(4,), trials=trial + 1,
                         method="mhtgd", seed=master)
    (cell,) = run_phase_grid(spec).cells
    assert cell.outcomes[trial]


EDGE_CASES = {
    # (N, L, K, M, min_sep)
    "L1": (33, 1, 2, 24, 1.5 / 33),
    "M1": (33, 2, 2, 1, 1.5 / 33),
    "even_N": (34, 2, 3, 26, 1.5 / 34),
    "N2": (2, 2, 1, 2, 0.5),
    "N3": (3, 2, 1, 2, 0.5),
    "K_n_minus_1": (33, 2, 16, 30, 0.2 / 33),
}


@SOLVERS
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_end_with_a_stop_reason(solver, is_ca, case):
    N, L, K, M, min_sep = EDGE_CASES[case]
    dims = ProblemDims(N=N, L=L, K=K, M=M)
    sig = synthesize(random_model(dims, min_sep=min_sep, is_ca=is_ca, seed=3), dims)
    mask = sample_mask(dims, seed=(3, 1))
    t0 = time.perf_counter()
    report = solver(apply_mask(sig, mask), mask, SolverConfig(max_iter=300, seed=1),
                    ground_truth=sig)
    assert time.perf_counter() - t0 < 20.0
    assert report.stop_reason in STOP_REASONS
    assert report.x_hat.shape == (N, L) and np.all(np.isfinite(report.x_hat))


ROBUST_DIMS = ProblemDims(N=65, L=3, K=3, M=40)


def robustness_solve(solver, sig, data):
    mask = sample_mask(ROBUST_DIMS, seed=(3, 1))
    t0 = time.perf_counter()
    report = solver(apply_mask(MultichannelSignal(data=data, dims=ROBUST_DIMS), mask), mask,
                    SolverConfig(max_iter=300, seed=1), ground_truth=sig)
    assert time.perf_counter() - t0 < 20.0
    assert report.stop_reason in STOP_REASONS
    assert np.all(np.isfinite(report.x_hat))
    return report


@SOLVERS
@pytest.mark.parametrize("snr_db", [20.0, 0.0])
def test_noisy_observations_are_recovered_to_the_noise_level(solver, is_ca, snr_db):
    # complex Gaussian noise on every sample, of power mean|x|^2 / 10^(SNR/10)
    sig = synthesize(random_model(ROBUST_DIMS, min_sep=1.5 / 65, is_ca=is_ca, seed=3),
                     ROBUST_DIMS)
    rng = np.random.default_rng(5)
    sigma = np.sqrt(np.mean(np.abs(sig.data) ** 2) / 10.0 ** (snr_db / 10.0) / 2.0)
    noise = sigma * (rng.standard_normal(sig.data.shape) + 1j * rng.standard_normal(sig.data.shape))
    report = robustness_solve(solver, sig, sig.data + noise)
    assert report.nmse <= 10.0 ** (-snr_db / 10.0)


@SOLVERS
def test_a_pair_closer_than_the_rayleigh_limit_is_recovered(solver, is_ca):
    # the second frequency a quarter of 1/N from the first: random_model's
    # min_sep only bounds the gaps from below, and seed 3 draws them 5/N apart
    model = random_model(ROBUST_DIMS, is_ca=is_ca, seed=3)
    freqs = model.freqs.copy()
    freqs[1] = freqs[0] + 0.25 / 65
    sig = synthesize(dataclasses.replace(model, freqs=freqs), ROBUST_DIMS)
    report = robustness_solve(solver, sig, sig.data)
    assert report.nmse <= 1e-4


@SOLVERS
def test_all_zero_observations_stop_at_the_zero_gradient(solver, is_ca):
    dims = ProblemDims(N=33, L=2, K=2, M=24)
    mask = sample_mask(dims, seed=(3, 1))
    zeros = MultichannelSignal(data=np.zeros((33, 2), dtype=complex), dims=dims)
    report = solver(zeros, mask, SolverConfig(max_iter=300))
    assert report.stop_reason == STOP_CONVERGED and report.iterations == 1
    assert np.all(report.x_hat == 0)


def test_rel_change_is_the_norm_quotient_bit_for_bit():
    # the relative change by ndarray methods equals the np.linalg.norm formula
    def reference(x_new, x_old):
        denom = np.linalg.norm(x_old)
        diff = np.linalg.norm(x_new - x_old)
        if denom == 0.0:
            return 0.0 if diff == 0.0 else np.inf
        return float(diff / denom)

    rng = np.random.default_rng(6)

    def randc(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    zero = np.zeros((3, 17), dtype=complex)
    cases = [(randc(5, 129), randc(5, 129)) for _ in range(20)]
    cases += [(randc(3, 17) * 10.0 ** e, randc(3, 17)) for e in (-150, -8, 8, 150)]
    cases += [(zero, zero), (randc(3, 17), zero), (zero, randc(3, 17))]
    for bad in (np.inf, -np.inf, np.nan, complex(np.inf, np.nan)):
        x = randc(3, 17)
        x[1, 4] = bad
        cases += [(x, randc(3, 17)), (randc(3, 17), x), (x, x)]
    with np.errstate(invalid="ignore", over="ignore"):
        for x_new, x_old in cases:
            got, want = _rel_change(x_new, x_old), reference(x_new, x_old)
            assert np.array_equal(np.float64(got), np.float64(want), equal_nan=True)


def test_descent_working_set_at_the_ca_wide_shape():
    # chtgd at N=255 L=32 K=6 M=160: a state is 0.4 MB and its transforms
    # 0.8 MB.  The last line and a rejected trial are freed before the next
    # is made, so a few iterations peak at 5.1 MB of numpy arrays (6.1 MB
    # when both were kept); tracemalloc's peak repeats exactly
    dims = ProblemDims(N=255, L=32, K=6, M=160)
    sig = synthesize(random_model(dims, min_sep=1.5 / 255, is_ca=True, seed=3), dims)
    mask = sample_mask(dims, seed=3)
    obs = weigh_observations(apply_mask(sig, mask), mask)
    start = start_point(chtgd.spectral_init_ca(obs.yT.T, mask, dims, seed=1).stacked(), obs,
                        chtgd._kernel_args)
    tracemalloc.start()
    try:
        out = run_descent(start, lambda t: chtgd._objective_stacked(t, obs),
                          lambda t: gradient_line(t, obs, chtgd._kernel_args, chtgd._gradient),
                          SolverConfig(max_iter=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.iterations == 5
    assert peak < 5.6e6


def test_first_search_starts_near_the_polyak_step():
    # mhtgd's first line runs along G from the init, where a search from STEP0
    # tries 9-10 steps on this cell.  It starts at the smallest power of two
    # at or above 4 f / slope instead, on the same grid of halvings, and
    # accepts the same step after at most 4 evaluations
    dims = ProblemDims(N=65, L=5, K=4, M=35)
    for seed in range(3):
        sig = synthesize(random_model(dims, min_sep=1.5 / 65, seed=seed), dims)
        mask = sample_mask(dims, seed=seed + 100)
        obs = weigh_observations(apply_mask(sig, mask), mask)
        start = start_point(mhtgd.spectral_init(obs.yT.T, mask, dims, seed=seed).stacked(), obs,
                            mhtgd._kernel_args)
        evals = []

        def objective(t):
            evals.append(t)
            return mhtgd._objective_stacked(t, obs)

        def grad_and_signal(t):
            return gradient_line(t, obs, mhtgd._kernel_args, mhtgd._gradient)

        f0 = objective(start)
        line, _ = grad_and_signal(start)
        del evals[:]
        from_step0 = armijo_step(start, line._replace(first=STEP0), f0, objective, eta_prev=0.5)
        assert from_step0.accepted and len(evals) >= 9
        del evals[:]
        out = run_descent(start, objective, grad_and_signal, SolverConfig(max_iter=1))
        assert 1 + 1 <= len(evals) <= 1 + 4  # the start's value, then the first search
        assert out.objective_trace[1] == from_step0.value
