import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htgd.operators as ops
from htgd.descent import STOP_CONVERGED, SolverConfig, prepare_observed
from htgd import mhtgd
from htgd.mhtgd import (
    MEMORY,
    UNIT_TRIAL,
    FactorSetM,
    LbfgsDirection,
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


# ---------- L-BFGS direction ----------


def real(a):
    return a.reshape(-1).view(np.float64)


def two_loop(g, pairs):
    """H g by the two-loop recursion (Nocedal & Wright, Alg. 7.4) over real
    vectors, oldest pair first, H0 = gamma I from the newest pair."""
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        q -= a * y
        alphas.append(a)
    s, y = pairs[-1]
    r = (s @ y) / (y @ y) * q
    for (s, y), a in zip(pairs, reversed(alphas)):
        r += s * (a - (y @ r) / (s @ y))
    return r


def convex_quadratic(shape, seed):
    """Gradient G(z) of a random strictly convex quadratic of a complex state,
    in the real geometry: real(G) = Q real(z) - b, Q positive definite."""
    rng = np.random.default_rng(seed)
    size = 2 * int(np.prod(shape))
    A = rng.standard_normal((size, size))
    Q = A @ A.T / size + np.eye(size)
    b = rng.standard_normal(size)

    def grad(z):
        return (Q @ real(z) - b).view(complex).reshape(shape)

    def point():
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return grad, point


@pytest.mark.parametrize("iterates", [2, 4, MEMORY + 1, 3 * MEMORY + 2])  # past the ring's wrap
def test_lbfgs_direction_equals_the_two_loop_recursion(iterates):
    shape = (2, 6, 3)
    grad, point = convex_quadratic(shape, seed=iterates)
    direction = LbfgsDirection(int(np.prod(shape)))
    skip = 2 * MEMORY  # this iterate's gradient turns back along s: its pair is skipped
    pairs, prev = [], None
    for k in range(iterates):
        z = point()
        G = grad(z) if k != skip else prev[1] - 3.0 * (z - prev[0])
        D, first = direction.step(z, G)
        assert D.shape == G.shape and D.dtype == G.dtype
        if prev is None:
            assert D is G and first is None
        else:
            s, y = real(z) - real(prev[0]), real(G) - real(prev[1])
            if k == skip:
                assert s @ y < 0
            else:
                pairs = (pairs + [(s, y)])[-MEMORY:]
            want = two_loop(real(G), pairs)
            assert np.linalg.norm(real(D) - want) <= 1e-12 * np.linalg.norm(want)
            assert first == UNIT_TRIAL
        prev = (z, G)


def test_lbfgs_direction_skips_a_pair_without_positive_curvature():
    shape = (1, 4, 2)
    grad, point = convex_quadratic(shape, seed=3)
    direction = LbfgsDirection(8)
    z0, z1 = point(), point()
    direction.step(z0, grad(z0))
    direction.step(z1, grad(z1))  # one pair kept
    # the next gradient turns back along s, so Re<s, y> < 0: skipped, the kept pair stays
    z2 = point()
    G2 = grad(z1) - 3.0 * (z2 - z1)
    D, _ = direction.step(z2, G2)
    pair = (real(z1) - real(z0), real(grad(z1)) - real(grad(z0)))
    assert real(z2 - z1) @ real(G2 - grad(z1)) < 0
    want = two_loop(real(G2), [pair])
    assert np.linalg.norm(real(D) - want) <= 1e-12 * np.linalg.norm(want)
    # a skipped first pair leaves no memory: the direction is G
    fresh = LbfgsDirection(8)
    fresh.step(z1, grad(z1))
    D, first = fresh.step(z2, G2)
    assert D is G2 and first is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lbfgs_direction_resets_to_the_gradient_when_not_a_descent():
    shape = (1, 4, 2)
    grad, point = convex_quadratic(shape, seed=4)
    direction = LbfgsDirection(8)
    for _ in range(3):
        z = point()
        direction.step(z, grad(z))
    # a zero gradient makes D = 0, so Re<G, D> = 0: D is G and the memory is cleared
    zero = np.zeros(shape, dtype=complex)
    D, first = direction.step(point(), zero)
    assert D is zero and first is None
    z1 = point()
    G1 = grad(z1)
    D, first = direction.step(z1, G1)
    assert D is not G1 and first == UNIT_TRIAL  # one new pair, from the zero-gradient iterate
    # a non-finite D: also G, with the memory cleared
    bad = grad(point())
    bad[0, 0, 0] = np.inf
    D, first = direction.step(point(), bad)
    assert D is bad and first is None
    z2 = point()
    G2 = grad(z2)
    D, first = direction.step(z2, G2)
    assert D is G2 and first is None  # inf in y: skipped


def test_lbfgs_direction_after_a_reset_equals_the_two_loop_recursion():
    # the reset leaves the ring mid-way, so the pairs kept after it fill the
    # ring from ``_next``, not from slot 0, and wrap past its end
    shape = (1, 4, 2)
    grad, point = convex_quadratic(shape, seed=5)
    direction = LbfgsDirection(8)
    for _ in range(3):
        z = point()
        direction.step(z, grad(z))
    zero = np.zeros(shape, dtype=complex)
    prev = (point(), zero)
    D, first = direction.step(*prev)
    assert D is zero and first is None
    pairs = []
    for _ in range(MEMORY + 2):
        z = point()
        G = grad(z)
        D, first = direction.step(z, G)
        pairs = (pairs + [(real(z) - real(prev[0]), real(G) - real(prev[1]))])[-MEMORY:]
        want = two_loop(real(G), pairs)
        assert np.linalg.norm(real(D) - want) <= 1e-12 * np.linalg.norm(want)
        assert first == UNIT_TRIAL
        prev = (z, G)


def test_solve_starts_with_the_plain_gradient_then_takes_lbfgs_lines(monkeypatch):
    dims = ProblemDims(N=33, L=2, K=2, M=24)
    sig = synthesize(random_model(dims, min_sep=1.5 / 33, seed=5), dims)
    mask = sample_mask(dims, seed=1)
    lines = []
    run_descent = mhtgd.run_descent

    def spy(state, objective, grad_and_signal, cfg):
        def recorded(t):
            line, x = grad_and_signal(t)
            lines.append(line)
            return line, x
        return run_descent(state, objective, recorded, cfg)

    monkeypatch.setattr(mhtgd, "run_descent", spy)
    report = solve_mhtgd(apply_mask(sig, mask), mask, SolverConfig(seed=2))
    assert report.converged and report.iterations == len(lines) - 1 > 5
    assert lines[0].first is None and lines[0].slope == np.vdot(lines[0].direction,
                                                                lines[0].direction).real
    assert all(line.first == UNIT_TRIAL for line in lines[1:])
