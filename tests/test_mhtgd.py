import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htgd.operators as ops
from htgd.descent import STOP_CONVERGED, SolverConfig, prepare_observed
from htgd.mhtgd import (
    FactorSetM,
    grad_f,
    objective_f,
    solve_mhtgd,
    spectral_init,
)
from htgd.lowrank import randomized_lift_svd
from htgd.retrieval import nmse
from htgd.signals import (
    MultichannelSignal,
    ProblemDims,
    SamplingMask,
    apply_mask,
    make_rng,
    random_model,
    sample_mask,
    synthesize,
)


def random_problem(N, L, K, M, seed, even_pad=False):
    dims = ProblemDims(N=N, L=L, K=K, M=M)
    rng = make_rng(seed)
    y = rng.standard_normal((dims.full_N, L)) + 1j * rng.standard_normal((dims.full_N, L))
    if dims.full_N > N:
        y[-1] = 0.0  # the padded slot is never observed
    mask = sample_mask(dims, seed=seed + 1)
    return dims, y, mask


def random_factors(dims, seed):
    rng = make_rng(seed)
    shape = (dims.L, dims.n, dims.K)
    z1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FactorSetM(z1=z1, z2=z2)


def dense_objective_full(factors, y, mask, dims):
    """Reference objective: every term from explicit n x n matrices."""
    obs = prepare_observed(y, mask, dims)
    yT, maskb = obs.yT, obs.maskb
    p = dims.p
    z1, z2 = factors.z1, factors.z2
    L = dims.L
    tot = 0.0
    C = sum(z1[q] @ z1[q].conj().T for q in range(L))
    for l in range(L):
        M_l = z2[l] @ z1[l].conj().T
        h = ops.g_adjoint(M_l)
        tot += np.sum(np.abs(np.where(maskb, h - yT[l], 0.0)) ** 2) / (2 * p)
        tot += 0.5 * np.linalg.norm(M_l - ops.g_apply(h)) ** 2
        G1 = z1[l] @ z1[l].conj().T
        tot += 0.25 * np.linalg.norm(G1 - ops.w_apply(ops.w_adjoint(G1))) ** 2
        tot += 0.25 * np.linalg.norm(C - L * np.conj(z2[l]) @ z2[l].T) ** 2
    return tot


@pytest.mark.parametrize("N,L,K,M", [(9, 1, 2, 6), (15, 3, 2, 10), (16, 2, 3, 12)])
def test_objective_matches_dense_reference(N, L, K, M):
    dims, y, mask = random_problem(N, L, K, M, seed=N)
    factors = random_factors(dims, seed=N + 1)
    fast = objective_f(factors, y, mask, dims)
    dense = dense_objective_full(factors, y, mask, dims)
    assert fast == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_gradient_matches_finite_differences(L):
    # real directional derivative d/dt f(Z + t D) must equal 2 Re<grad, D>
    dims, y, mask = random_problem(15, L, 2, 10, seed=40 + L)
    factors = random_factors(dims, seed=50 + L)
    grad = grad_f(factors, y, mask, dims)
    rng = make_rng(60 + L)
    eps = 1e-6
    for trial in range(3):
        d1 = rng.standard_normal(factors.z1.shape) + 1j * rng.standard_normal(factors.z1.shape)
        d2 = rng.standard_normal(factors.z2.shape) + 1j * rng.standard_normal(factors.z2.shape)
        fp = objective_f(FactorSetM(factors.z1 + eps * d1, factors.z2 + eps * d2), y, mask, dims)
        fm = objective_f(FactorSetM(factors.z1 - eps * d1, factors.z2 - eps * d2), y, mask, dims)
        fd = (fp - fm) / (2 * eps)
        analytic = 2.0 * (np.vdot(grad.z1, d1) + np.vdot(grad.z2, d2)).real
        assert fd == pytest.approx(analytic, rel=1e-5)


def test_spectral_init_is_best_rank_k_per_channel():
    dims, y, mask = random_problem(21, 2, 3, 14, seed=7)
    yT = prepare_observed(y, mask, dims).yT
    init = spectral_init(y, mask, dims)
    for l in range(dims.L):
        G = ops.g_apply(yT[l] / dims.p)
        s = np.linalg.svd(G, compute_uv=False)
        resid = np.linalg.norm(init.z2[l] @ init.z1[l].conj().T - G) ** 2
        assert resid == pytest.approx(np.sum(s[dims.K:] ** 2), rel=1e-9, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), N=st.integers(3, 80), L=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_spectral_init_channel_matches_a_single_seeded_call(data, N, L, seed):
    # one batched call over the channels, channel l seeded with (seed, l)
    n = (N + 2) // 2  # dims.n for odd and even N
    K = data.draw(st.integers(1, n - 1), label="K")
    M = data.draw(st.integers(1, N), label="M")
    dims, y, mask = random_problem(N, L, K, M, seed=7)
    yT = prepare_observed(y, mask, dims).yT
    init = spectral_init(y, mask, dims, seed=seed)
    for l in range(L):
        U, s, V = randomized_lift_svd(yT[l] / dims.p, K, seed=(seed, l))
        np.testing.assert_array_equal(init.z2[l], U * np.sqrt(s))
        np.testing.assert_array_equal(init.z1[l], V * np.sqrt(s))


def witness_setup(N, L, K, seed, is_ca=False):
    dims = ProblemDims(N=N, L=L, K=K, M=N)
    model = random_model(dims, min_sep=0.05, is_ca=is_ca, seed=seed)
    sig = synthesize(model, dims)
    w = ops.weight_vector(dims.full_N).omega
    x_int = np.zeros((dims.L, dims.full_N), dtype=complex)
    x_int[:, :N] = sig.data.T
    y = (w * x_int).T
    mask = SamplingMask(indices=np.arange(1, N + 1), N=N)
    return dims, model, sig, y, mask


def test_witness_is_stationary_global_minimum():
    from htgd.witness import factor_witness_general

    dims, model, sig, y, mask = witness_setup(25, 3, 3, seed=2)
    fw = factor_witness_general(model, dims)
    scale = 1.0 + np.linalg.norm(y) ** 4
    assert objective_f(fw, y, mask, dims) <= 1e-10 * scale
    g = grad_f(fw, y, mask, dims)
    gnorm = np.sqrt(np.linalg.norm(g.z1) ** 2 + np.linalg.norm(g.z2) ** 2)
    wnorm = np.sqrt(np.linalg.norm(fw.z1) ** 2 + np.linalg.norm(fw.z2) ** 2)
    assert gnorm <= 1e-6 * (1.0 + wnorm ** 3)


def test_solve_recovers_fully_observed_signal():
    dims = ProblemDims(N=33, L=2, K=2, M=33)
    model = random_model(dims, min_sep=0.1, seed=11)
    sig = synthesize(model, dims)
    mask = SamplingMask(indices=np.arange(1, 34), N=33)
    report = solve_mhtgd(sig, mask, SolverConfig(tol=1e-8), ground_truth=sig)
    assert report.stop_reason == STOP_CONVERGED
    assert report.iterations <= 500
    assert report.nmse <= 1e-10
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * (1 + trace[0]))
    assert len(report.iter_seconds) == report.iterations


def test_solve_recovers_subsampled_signal():
    dims = ProblemDims(N=33, L=3, K=2, M=20)
    model = random_model(dims, min_sep=0.1, seed=5)
    sig = synthesize(model, dims)
    mask = sample_mask(dims, seed=6)
    report = solve_mhtgd(apply_mask(sig, mask), mask, SolverConfig(tol=1e-8),
                         ground_truth=sig)
    assert report.converged
    assert report.nmse <= 1e-8


def test_solve_even_length_signal():
    dims = ProblemDims(N=16, L=2, K=2, M=12)
    model = random_model(dims, min_sep=0.1, seed=21)
    sig = synthesize(model, dims)
    mask = sample_mask(dims, seed=22)
    report = solve_mhtgd(apply_mask(sig, mask), mask, SolverConfig(tol=1e-8),
                         ground_truth=sig)
    assert report.converged
    assert report.nmse <= 1e-8
    assert report.x_hat.shape == (16, 2)


def test_solve_is_deterministic():
    dims = ProblemDims(N=17, L=2, K=2, M=12)
    model = random_model(dims, min_sep=0.1, seed=31)
    sig = synthesize(model, dims)
    mask = sample_mask(dims, seed=32)
    obs = apply_mask(sig, mask)
    a = solve_mhtgd(obs, mask, SolverConfig(seed=4))
    b = solve_mhtgd(obs, mask, SolverConfig(seed=4))
    np.testing.assert_array_equal(a.x_hat, b.x_hat)
    assert a.objective_trace == b.objective_trace


def test_solve_rejects_mismatched_mask():
    dims = ProblemDims(N=17, L=2, K=2, M=12)
    sig = MultichannelSignal(data=np.zeros((17, 2), dtype=complex), dims=dims)
    bad = SamplingMask(indices=np.arange(1, 11), N=17)  # M=10 != 12
    with pytest.raises(ValueError, match="mask"):
        solve_mhtgd(sig, bad)


def test_factor_set_shape_validation():
    with pytest.raises(ValueError):
        FactorSetM(z1=np.zeros((3, 4)), z2=np.zeros((3, 4)))


def test_zero_factors_evaluate_cleanly():
    dims, y, mask = random_problem(11, 2, 2, 8, seed=70)
    z = np.zeros((dims.L, dims.n, dims.K), dtype=complex)
    factors = FactorSetM(z1=z, z2=z)
    obs = prepare_observed(y, mask, dims)
    yT, maskb = obs.yT, obs.maskb
    expect = np.sum(np.abs(yT) ** 2) / (2 * dims.p)
    assert objective_f(factors, y, mask, dims) == pytest.approx(expect, rel=1e-12)
    g = grad_f(factors, y, mask, dims)
    assert np.all(np.isfinite(g.z1)) and np.all(np.isfinite(g.z2))
