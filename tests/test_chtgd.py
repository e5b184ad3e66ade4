import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htgd.operators as ops
from htgd.chtgd import (
    FactorSetC,
    grad_g,
    objective_g,
    solve_chtgd,
    spectral_init_ca,
)
from htgd.descent import STOP_CONVERGED, SolverConfig, prepare_observed
from htgd.lowrank import randomized_lift_svd, takagi_vectors
from htgd.signals import (
    MultichannelSignal,
    ProblemDims,
    SamplingMask,
    SpectralModel,
    apply_mask,
    make_rng,
    random_model,
    sample_mask,
    synthesize,
)


def random_problem(N, L, K, M, seed):
    dims = ProblemDims(N=N, L=L, K=K, M=M)
    rng = make_rng(seed)
    y = rng.standard_normal((dims.full_N, L)) + 1j * rng.standard_normal((dims.full_N, L))
    if dims.full_N > N:
        y[-1] = 0.0
    mask = sample_mask(dims, seed=seed + 1)
    return dims, y, mask


def random_factors(dims, seed):
    rng = make_rng(seed)
    shape = (dims.L, dims.n, dims.K)
    return FactorSetC(z=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def dense_objective_full(factors, y, mask, dims):
    """Reference objective from explicit n x n matrices."""
    obs = prepare_observed(y, mask, dims)
    yT, maskb = obs.yT, obs.maskb
    p = dims.p
    z = factors.z
    tot = 0.0
    G1 = z[0] @ z[0].conj().T
    for l in range(dims.L):
        M_l = z[l] @ z[l].T
        h = ops.g_adjoint(M_l)
        tot += np.sum(np.abs(np.where(maskb, h - yT[l], 0.0)) ** 2) / (4 * p)
        tot += 0.25 * np.linalg.norm(M_l - ops.g_apply(h)) ** 2
        if l >= 1:
            tot += 0.25 * np.linalg.norm(G1 - z[l] @ z[l].conj().T) ** 2
    tot += 0.25 * np.linalg.norm(G1 - ops.w_apply(ops.w_adjoint(G1))) ** 2
    return tot


@pytest.mark.parametrize("N,L,K,M", [(9, 1, 2, 6), (15, 3, 2, 10), (16, 2, 3, 12)])
def test_objective_matches_dense_reference(N, L, K, M):
    dims, y, mask = random_problem(N, L, K, M, seed=100 + N)
    factors = random_factors(dims, seed=101 + N)
    fast = objective_g(factors, y, mask, dims)
    dense = dense_objective_full(factors, y, mask, dims)
    assert fast == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_gradient_matches_finite_differences(L):
    dims, y, mask = random_problem(15, L, 2, 10, seed=140 + L)
    factors = random_factors(dims, seed=150 + L)
    grad = grad_g(factors, y, mask, dims)
    rng = make_rng(160 + L)
    eps = 1e-6
    for trial in range(3):
        d = rng.standard_normal(factors.z.shape) + 1j * rng.standard_normal(factors.z.shape)
        fp = objective_g(FactorSetC(factors.z + eps * d), y, mask, dims)
        fm = objective_g(FactorSetC(factors.z - eps * d), y, mask, dims)
        fd = (fp - fm) / (2 * eps)
        analytic = 2.0 * np.vdot(grad.z, d).real
        assert fd == pytest.approx(analytic, rel=1e-5)


def test_spectral_init_is_symmetric_best_rank_k():
    # Takagi truncation reaches the Eckart-Young bound for symmetric matrices
    dims, y, mask = random_problem(21, 2, 3, 14, seed=107)
    yT = prepare_observed(y, mask, dims).yT
    init = spectral_init_ca(y, mask, dims)
    for l in range(dims.L):
        G = ops.g_apply(yT[l] / dims.p)
        s = np.linalg.svd(G, compute_uv=False)
        resid = np.linalg.norm(init.z[l] @ init.z[l].T - G) ** 2
        assert resid == pytest.approx(np.sum(s[dims.K:] ** 2), rel=1e-9, abs=1e-12)
        # shared-Gram factor structure: z z^T reproduces a symmetric matrix
        np.testing.assert_allclose(init.z[l] @ init.z[l].T, (init.z[l] @ init.z[l].T).T,
                                   atol=1e-10 * max(s[0], 1.0))


# random small lifts often have clustered tails (M = 1 gives rank one)
@pytest.mark.filterwarnings("ignore:clustered singular values")
@settings(max_examples=25, deadline=None)
@given(data=st.data(), N=st.integers(3, 80), L=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_spectral_init_ca_channel_matches_a_single_seeded_call(data, N, L, seed):
    # one batched call over the channels, channel l seeded with (seed, l)
    n = (N + 2) // 2  # dims.n for odd and even N
    K = data.draw(st.integers(1, n - 1), label="K")
    M = data.draw(st.integers(1, N), label="M")
    dims, y, mask = random_problem(N, L, K, M, seed=7)
    yT = prepare_observed(y, mask, dims).yT
    init = spectral_init_ca(y, mask, dims, seed=seed)
    for l in range(L):
        U, s, V = randomized_lift_svd(yT[l] / dims.p, K, seed=(seed, l))
        np.testing.assert_array_equal(init.z[l], takagi_vectors(U, s, V) * np.sqrt(s))


def test_witness_is_stationary_global_minimum():
    from htgd.witness import factor_witness_ca

    dims = ProblemDims(N=25, L=3, K=3, M=25)
    model = random_model(dims, min_sep=0.05, is_ca=True, seed=170)
    sig = synthesize(model, dims)
    w = ops.weight_vector(dims.full_N).omega
    x_int = np.zeros((dims.L, dims.full_N), dtype=complex)
    x_int[:, :dims.N] = sig.data.T
    y = (w * x_int).T
    mask = SamplingMask(indices=np.arange(1, 26), N=25)
    fw = factor_witness_ca(model, dims)
    scale = 1.0 + np.linalg.norm(y) ** 4
    assert objective_g(fw, y, mask, dims) <= 1e-10 * scale
    g = grad_g(fw, y, mask, dims)
    assert np.linalg.norm(g.z) <= 1e-6 * (1.0 + np.linalg.norm(fw.z) ** 3)


def test_solve_recovers_fully_observed_signal():
    dims = ProblemDims(N=33, L=2, K=2, M=33)
    model = random_model(dims, min_sep=0.1, is_ca=True, seed=112)
    sig = synthesize(model, dims)
    mask = SamplingMask(indices=np.arange(1, 34), N=33)
    report = solve_chtgd(sig, mask, SolverConfig(tol=1e-8), ground_truth=sig)
    assert report.stop_reason == STOP_CONVERGED
    assert report.iterations <= 500
    assert report.nmse <= 1e-10
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * (1 + trace[0]))


def test_solve_recovers_a_signal_with_tied_singular_values():
    # unit amplitudes 5/17 apart: the n = 17 steering columns are orthogonal, so
    # every channel's lift has two equal singular values and the init's Takagi
    # vectors come from the clustered block's square root
    dims = ProblemDims(N=33, L=2, K=2, M=33)
    model = SpectralModel(freqs=[0.1, 0.1 + 5 / 17], amps=np.ones((2, 2)),
                          phases=[[0.3, 1.1], [2.0, -0.7]], is_ca=True)
    sig = synthesize(model, dims)
    mask = SamplingMask(indices=np.arange(1, 34), N=33)
    y = ops.weight_vector(33).omega[:, None] * sig.data
    with pytest.warns(UserWarning, match="clustered"):
        init = spectral_init_ca(y, mask, dims)
    for l in range(2):
        lift = ops.g_apply(y[:, l])
        assert np.linalg.norm(init.z[l] @ init.z[l].T - lift) <= 1e-12 * np.linalg.norm(lift)
    with pytest.warns(UserWarning, match="clustered"):
        report = solve_chtgd(sig, mask, SolverConfig(), ground_truth=sig)
    assert report.converged and report.nmse <= 1e-20


def test_solve_recovers_subsampled_signal():
    dims = ProblemDims(N=33, L=3, K=2, M=20)
    model = random_model(dims, min_sep=0.1, is_ca=True, seed=115)
    sig = synthesize(model, dims)
    mask = sample_mask(dims, seed=116)
    report = solve_chtgd(apply_mask(sig, mask), mask, SolverConfig(tol=1e-8),
                         ground_truth=sig)
    assert report.converged
    assert report.nmse <= 1e-8


def test_solve_even_length_signal():
    dims = ProblemDims(N=16, L=2, K=2, M=12)
    model = random_model(dims, min_sep=0.1, is_ca=True, seed=121)
    sig = synthesize(model, dims)
    mask = sample_mask(dims, seed=122)
    report = solve_chtgd(apply_mask(sig, mask), mask, SolverConfig(tol=1e-8),
                         ground_truth=sig)
    assert report.converged
    assert report.nmse <= 1e-8
    assert report.x_hat.shape == (16, 2)


def test_solve_accepts_non_ca_data_without_crashing():
    # wrong model class: still runs and reports an outcome honestly
    dims = ProblemDims(N=17, L=2, K=2, M=14)
    model = random_model(dims, min_sep=0.1, is_ca=False, seed=131)
    sig = synthesize(model, dims)
    mask = sample_mask(dims, seed=132)
    report = solve_chtgd(apply_mask(sig, mask), mask,
                         SolverConfig(max_iter=50))
    assert report.stop_reason in {"converged", "max_iter", "line_search_failure"}
    assert np.all(np.isfinite(report.x_hat))


def test_solve_is_deterministic():
    dims = ProblemDims(N=17, L=2, K=2, M=12)
    model = random_model(dims, min_sep=0.1, is_ca=True, seed=133)
    sig = synthesize(model, dims)
    mask = sample_mask(dims, seed=134)
    obs = apply_mask(sig, mask)
    a = solve_chtgd(obs, mask, SolverConfig(seed=4))
    b = solve_chtgd(obs, mask, SolverConfig(seed=4))
    np.testing.assert_array_equal(a.x_hat, b.x_hat)
    assert a.objective_trace == b.objective_trace


def test_solve_rejects_mismatched_mask():
    dims = ProblemDims(N=17, L=2, K=2, M=12)
    sig = MultichannelSignal(data=np.zeros((17, 2), dtype=complex), dims=dims)
    bad = SamplingMask(indices=np.arange(1, 11), N=17)
    with pytest.raises(ValueError, match="mask"):
        solve_chtgd(sig, bad)


def test_factor_set_shape_validation():
    with pytest.raises(ValueError):
        FactorSetC(z=np.zeros((3, 4)))


def test_zero_factors_evaluate_cleanly():
    dims, y, mask = random_problem(11, 2, 2, 8, seed=180)
    factors = FactorSetC(z=np.zeros((dims.L, dims.n, dims.K), dtype=complex))
    yT = prepare_observed(y, mask, dims).yT
    expect = np.sum(np.abs(yT) ** 2) / (4 * dims.p)
    assert objective_g(factors, y, mask, dims) == pytest.approx(expect, rel=1e-12)
    g = grad_g(factors, y, mask, dims)
    assert np.all(np.isfinite(g.z))
