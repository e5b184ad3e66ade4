import numpy as np
import pytest

from htgd.chtgd import solve_chtgd
from htgd.descent import (
    STOP_CONVERGED,
    STOP_LINE_SEARCH,
    STOP_MAX_ITER,
    STOP_NUMERICAL,
    ArmijoConfig,
    SolverConfig,
    armijo_step,
    run_descent,
)
from htgd.errors import NumericalError
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


def quadratic(alpha):
    # f(z) = alpha * ||z||^2, conjugate Wirtinger gradient alpha * z
    def f(z):
        return alpha * float(np.vdot(z, z).real)

    def g(z):
        return alpha * z

    return f, g


def test_armijo_accepts_exact_minimiser_of_quadratic():
    # alpha = 4: trials 1.0, 0.5 fail sufficient decrease, 0.25 lands on the minimum
    f, g = quadratic(4.0)
    z = np.array([1.0 + 1.0j, -2.0j])
    cfg = ArmijoConfig()
    res = armijo_step(z, g(z), f(z), f, cfg, eta_prev=cfg.step0 / cfg.growth)
    assert res.accepted
    assert res.eta == pytest.approx(0.25)
    assert res.value == pytest.approx(0.0, abs=1e-24)
    np.testing.assert_allclose(res.state, 0.0, atol=1e-12)


def test_armijo_first_trial_is_step0():
    f, g = quadratic(0.25)  # eta = 1 satisfies the condition outright
    z = np.ones(3, dtype=complex)
    cfg = ArmijoConfig(step0=1.0)
    res = armijo_step(z, g(z), f(z), f, cfg, eta_prev=cfg.step0 / cfg.growth)
    assert res.accepted and res.eta == pytest.approx(1.0)


def test_armijo_zero_gradient_accepts_immediately():
    calls = []

    def f(z):
        calls.append(1)
        return 7.0

    z = np.ones(4, dtype=complex)
    res = armijo_step(z, np.zeros_like(z), 7.0, f, ArmijoConfig(), eta_prev=0.5)
    assert res.accepted
    assert res.value == 7.0
    assert res.state is z
    assert not calls


def test_armijo_reports_exhaustion():
    def f_bad(z):
        return 1.0  # never below f_curr

    z = np.ones(2, dtype=complex)
    res = armijo_step(z, z.copy(), 1.0, f_bad, ArmijoConfig(max_backtracks=5), eta_prev=1.0)
    assert not res.accepted
    assert res.state is z and res.value == 1.0


def test_armijo_nan_objective_keeps_shrinking():
    f, g = quadratic(4.0)

    def f_guarded(z):
        val = f(z)
        return val if val < 5.9 else np.nan  # poisons the large-step trials

    z = np.array([1.0 + 0.0j])
    cfg = ArmijoConfig()
    res = armijo_step(z, g(z), f(z), f_guarded, cfg, eta_prev=cfg.step0 / cfg.growth)
    assert res.accepted and res.eta <= 0.25


def test_armijo_step_cap():
    cfg = ArmijoConfig(step0=1.0, growth=2.0)
    assert cfg.step_cap == 256.0
    f, g = quadratic(1e-6)  # shallow bowl: any step decreases
    z = np.ones(2, dtype=complex)
    res = armijo_step(z, g(z), f(z), f, cfg, eta_prev=1e9)
    assert res.eta <= cfg.step_cap


@pytest.mark.parametrize("bad", [
    dict(shrink=0.0), dict(shrink=1.0), dict(decrease=0.0), dict(decrease=1.0),
    dict(growth=0.5), dict(step0=0.0), dict(max_backtracks=0),
])
def test_armijo_config_validation(bad):
    with pytest.raises(ValueError):
        ArmijoConfig(**bad)


@pytest.mark.parametrize("bad", [dict(tol=0.0), dict(tol=-1.0), dict(max_iter=0)])
def test_solver_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def descend_quadratic(alpha, z0, cfg):
    f, g = quadratic(alpha)
    return run_descent(z0, f, lambda z: (g(z), z), lambda h: h, cfg)


def test_run_descent_converges_on_quadratic():
    out = descend_quadratic(4.0, np.array([3.0 + 1.0j, -2.0 + 0.5j]), SolverConfig(tol=1e-9))
    assert out.stop_reason == STOP_CONVERGED
    np.testing.assert_allclose(out.state, 0.0, atol=1e-8)
    # trace is monotone and bookkeeping lines up
    trace = np.asarray(out.objective_trace)
    assert np.all(np.diff(trace) <= 0)
    assert len(trace) == out.iterations + 1
    assert len(out.iter_seconds) == out.iterations
    assert out.total_seconds >= 0


def test_run_descent_max_iter():
    # alpha = 3 accepts eta = 0.5, so iterates flip-halve forever: rel change stays 1.5
    out = descend_quadratic(3.0, np.ones(2, dtype=complex), SolverConfig(tol=1e-30, max_iter=3))
    assert out.stop_reason == STOP_MAX_ITER
    assert out.iterations == 3


def test_run_descent_nonfinite_start():
    def f(z):
        return np.inf

    z0 = np.ones(2, dtype=complex)
    out = run_descent(z0, f, lambda z: (z, z), lambda h: h, SolverConfig())
    assert out.stop_reason == STOP_NUMERICAL
    assert out.iterations == 0
    assert out.x_hat.shape == z0.shape


def test_run_descent_line_search_failure_reported():
    z0 = np.ones(2, dtype=complex)

    def f(z):
        return 1.0 if z is z0 else np.nan  # every trial point poisoned

    out = run_descent(z0, f, lambda z: (z, z), lambda h: h,
                      SolverConfig(armijo=ArmijoConfig(max_backtracks=4)))
    assert out.stop_reason == STOP_LINE_SEARCH
    assert out.iterations == 0
    assert len(out.objective_trace) == 1


def test_run_descent_nonfinite_gradient_reported():
    def g(z):
        bad = z.copy()
        bad[0] = np.nan
        return bad, z

    out = run_descent(np.ones(2, dtype=complex), lambda z: 1.0, g, lambda h: h, SolverConfig())
    assert out.stop_reason == STOP_NUMERICAL


def observed_instance(is_ca):
    dims = ProblemDims(N=33, L=2, K=2, M=24)
    sig = synthesize(random_model(dims, min_sep=1.5 / 33, is_ca=is_ca, seed=5), dims)
    mask = sample_mask(dims, seed=(5, 1))
    return dims, sig, mask, apply_mask(sig, mask).data.copy()


@SOLVERS
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])  # 1e308 overflows once weighted
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
