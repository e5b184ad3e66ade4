import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htgd.operators as ops
from htgd.lowrank import randomized_lift_svd, takagi_factors
from htgd.signals import make_rng


def truncated_svd(M, K):
    """Dense oracle: leading-K SVD of M; returns (U (n, K), s (K,), V (n, K))."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return U[:, :K], s[:K], Vh[:K].conj().T


def takagi_truncated(A, K):
    """Dense oracle: rank-K Takagi factors Z (n, K) of a complex symmetric A
    from its leading-K SVD, so A ~ Z Z^T and Z^H Z = diag(Takagi values)."""
    return takagi_factors(*truncated_svd(np.asarray(A, dtype=complex), K))


def assert_diagonal(G, atol):
    np.testing.assert_allclose(G - np.diag(np.diag(G)), 0.0, atol=atol)


def weighted_sinusoid_mix(n, K, seed):
    """Weighted lift input whose Hankel lift has exact rank K."""
    N = 2 * n - 1
    rng = make_rng(seed)
    freqs = rng.uniform(0, 1, K)
    coef = rng.uniform(0.5, 1.5, K) * np.exp(2j * np.pi * rng.uniform(0, 1, K))
    x = np.exp(-2j * np.pi * np.outer(np.arange(N), freqs)) @ coef
    return ops.weight_vector(N).omega * x


def test_truncated_svd_matches_numpy():
    rng = make_rng(0)
    M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    U, s, V = truncated_svd(M, 3)
    Uf, sf, Vhf = np.linalg.svd(M)
    np.testing.assert_allclose(s, sf[:3], rtol=1e-12)
    np.testing.assert_allclose(np.abs(U.conj().T @ Uf[:, :3]), np.eye(3), atol=1e-10)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)


def full_rank_lift_instance():
    rng = make_rng(1)
    N, K = 31, 3
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    M = ops.g_apply(v)
    tail = np.sum(np.linalg.svd(M, compute_uv=False)[K:] ** 2)
    return v, K, M, tail


def test_dense_oracle_is_best_rank_k():
    # Eckart-Young: residual energy equals the tail singular values
    v, K, M, tail = full_rank_lift_instance()
    U, s, V = truncated_svd(M, K)
    resid = np.linalg.norm(M - (U * s) @ V.conj().T) ** 2
    assert resid == pytest.approx(tail, rel=1e-10)


def test_randomized_lift_svd_is_near_best_rank_k():
    # a full-rank lift with r = K + 8 < n probe columns: the range finder
    # misses some of the leading space, so the residual may exceed the
    # Eckart-Young tail, here by no more than 0.1% (it is 4e-5 today)
    v, K, M, tail = full_rank_lift_instance()
    U, s, V = randomized_lift_svd(v, K, seed=0)
    resid = np.linalg.norm(M - (U * s) @ V.conj().T) ** 2
    assert tail <= resid * (1 + 1e-12)
    assert resid <= (1 + 1e-3) * tail


@pytest.mark.parametrize("shape", [(), (1,), (2,), (3, 1)], ids=["N", "1xN", "2xN", "3x1xN"])
def test_randomized_rank_must_lie_in_one_to_n(shape):
    n = 5
    v = np.ones(shape + (2 * n - 1,), dtype=complex)
    for K in (0, -1, n + 1):
        with pytest.raises(ValueError, match="rank"):
            randomized_lift_svd(v, K, seed=0)
    U, s, V = randomized_lift_svd(v, n, seed=0)
    L = shape[-1] if shape else 1
    assert U.shape == shape[:-1] + (n, n) and V.shape == shape[:-1] + (n * L, n)


@pytest.mark.parametrize("N", [2, 4])
@pytest.mark.parametrize("shape", [(), (3, 2)], ids=["N", "3x2xN"])
def test_randomized_even_length_names_the_odd_length_rule(shape, N):
    with pytest.raises(ValueError, match=f"must be odd and positive, got {N}"):
        randomized_lift_svd(np.ones(shape + (N,), dtype=complex), 1, seed=0)


@pytest.mark.parametrize("K", [1, 3])
def test_randomized_path_matches_dense_on_exact_rank(K):
    n = 48
    v = weighted_sinusoid_mix(n, K, seed=5)
    Ud, sd, Vd = truncated_svd(ops.g_apply(v), K)
    Ur, sr, Vr = randomized_lift_svd(v, K, seed=0)
    np.testing.assert_allclose(sr, sd, rtol=1e-9)
    np.testing.assert_allclose((Ur * sr) @ Vr.conj().T, ops.g_apply(v), atol=1e-8 * sd[0])


def test_randomized_path_deterministic_and_tuple_seeded():
    v = weighted_sinusoid_mix(32, 2, seed=9)
    a = randomized_lift_svd(v, 2, seed=(7, 3))
    b = randomized_lift_svd(v, 2, seed=(7, 3))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = randomized_lift_svd(v, 2, seed=(7, 4))
    assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("n", [5, 48, 400])
def test_randomized_single_channel_matches_stacked_call(n):
    v = weighted_sinusoid_mix(n, 2, seed=n)
    a = randomized_lift_svd(v, 2, seed=(3, 1))
    b = randomized_lift_svd(v[None], 2, seed=(3, 1))
    for x, y in zip(a, b):
        assert x.shape == y.shape
        np.testing.assert_array_equal(x, y)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.one_of(st.integers(1, 64), st.just(385)),
       B=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_batched_call_matches_single_calls_bit_for_bit(data, n, B, seed):
    # batch entry b draws its probe from (seed, b), so one (B, 1, N) call is
    # B single calls; n = 385 adds a size with long (P = 1024) transforms
    K = data.draw(st.integers(1, max(1, n - 1)), label="K")
    rng = make_rng(seed)
    v = rng.standard_normal((B, 1, 2 * n - 1)) + 1j * rng.standard_normal((B, 1, 2 * n - 1))
    batched = randomized_lift_svd(v, K, seed)
    for b in range(B):
        single = randomized_lift_svd(v[b, 0], K, seed=(seed, b))
        for x, y in zip(batched, single):
            assert x[b].shape == y.shape
            np.testing.assert_array_equal(x[b], y)


def test_randomized_path_stacks_channels():
    n, K, L = 40, 3, 3
    N = 2 * n - 1
    rng = make_rng(6)
    freqs = rng.uniform(0, 1, K)
    coef = rng.standard_normal((K, L)) + 1j * rng.standard_normal((K, L))
    x = np.exp(-2j * np.pi * np.outer(np.arange(N), freqs)) @ coef
    v = x.T * ops.weight_vector(N).omega
    E = np.concatenate([ops.g_apply(v[l]) for l in range(L)], axis=1)
    Ud, sd, _ = truncated_svd(E, K)
    U, s, V = randomized_lift_svd(v, K, seed=0)
    assert U.shape == (n, K) and V.shape == (n * L, K)
    np.testing.assert_allclose(s, sd, rtol=1e-9)
    np.testing.assert_allclose((U * s) @ V.conj().T, E, atol=1e-8 * sd[0])


def test_randomized_lift_svd_working_set_at_the_ca_wide_init_shape():
    # the (32, 1, 255) batch of the ca-wide spectral init, K = 6 (r = 14, P = 256):
    # one reused (32, 1, 14, 256) product buffer, 1.8 MB, and every (32, 128, 14)
    # factor, 0.9 MB, dropped once the next is made from it.  tracemalloc
    # counts numpy's arrays, and its peak repeats exactly: 5.2 MB here, 7.8 MB
    # with a new product array per call and each factor kept to the next QR
    rng = make_rng(0)
    v = rng.standard_normal((32, 1, 255)) + 1j * rng.standard_normal((32, 1, 255))
    randomized_lift_svd(v, 6, 0)  # the cached weights and FFT lengths
    tracemalloc.start()
    try:
        randomized_lift_svd(v, 6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5e6


def test_takagi_real_diagonal():
    A = np.diag([3.0, 1.0]).astype(complex)
    Z = takagi_truncated(A, 2)
    np.testing.assert_allclose(Z.conj().T @ Z, np.diag([3.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(Z @ Z.T, A, atol=1e-12)


def test_takagi_clustered_pair_needs_no_special_case():
    # G(omega * [0, 1, 0]) = [[0, 1], [1, 0]]: two unit singular values
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    v = ops.weight_vector(3).omega * np.array([0.0, 1.0, 0.0], dtype=complex)
    U, s, V = randomized_lift_svd(v, 2, seed=0)
    Z = takagi_factors(U, s, V)
    np.testing.assert_allclose(s, [1.0, 1.0])
    np.testing.assert_allclose(Z @ Z.T, A, atol=1e-10)
    np.testing.assert_allclose(Z.conj().T @ Z, np.eye(2), atol=1e-10)


def symmetric_block(kind, k, rng):
    """A k x k complex symmetric block: unitary O diag(e^{i theta}) O^T with a
    repeated angle or a double eigenvalue -1, or a general A + A^T."""
    if kind == "general":
        A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return A + A.T
    O, _ = np.linalg.qr(rng.standard_normal((k, k)))
    theta = rng.uniform(-np.pi, np.pi, k)
    if kind == "repeated":
        theta[1] = theta[0]
    else:
        theta[:2] = np.pi
    return (O * np.exp(1j * theta)) @ O.T


def assert_takagi_factors_of_full_svd(B):
    # with the full SVD, U S U^T is B itself: Z Z^T = B, and Z^H Z is diagonal
    Z = takagi_truncated(B, len(B))
    scale = np.linalg.norm(B)
    assert np.linalg.norm(Z @ Z.T - B) <= 1e-12 * scale
    assert_diagonal(Z.conj().T @ Z, atol=1e-12 * scale)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["repeated", "minus_one", "general"]), k=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_takagi_factors_of_a_symmetric_block(kind, k, seed):
    assert_takagi_factors_of_full_svd(symmetric_block(kind, k, make_rng(seed)))


@pytest.mark.parametrize("u", [[1.0, 1.0j], [3.0, 4.0j], [1.0, 1.0, 2**0.5 * 1j]],
                         ids=["nilpotent", "rank1", "nilpotent3"])
def test_takagi_factors_of_a_singular_block(u):
    # B = u u^T is singular, and nilpotent when u^T u = 0: a matrix with no
    # square root at all still has its Takagi factors
    u = np.array(u)
    assert_takagi_factors_of_full_svd(np.outer(u, u))


def test_takagi_factors_are_the_two_sided_projection():
    # full-rank lifts: the truncated SVD's U and V are not exact conjugates,
    # so S = U^H A conj(U) is not diagonal, and Z Z^T must still be U S U^T
    N, K = 63, 4
    for seed in range(20):
        rng = make_rng(seed)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        U, s, V = randomized_lift_svd(v, K, seed=0)
        target = U @ (s[:, None] * (V.conj().T @ U.conj())) @ U.T
        Z = takagi_factors(U, s, V)
        assert np.linalg.norm(Z @ Z.T - target) <= 1e-12 * np.linalg.norm(target)


@pytest.mark.parametrize("n,K", [(6, 2), (11, 4)])
def test_takagi_random_symmetric(n, K):
    rng = make_rng(n * 100 + K)
    B = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    A = B @ B.T  # complex symmetric, rank K
    Z = takagi_truncated(A, K)
    np.testing.assert_allclose(Z @ Z.T, A, atol=1e-10 * np.linalg.norm(A))
    G = Z.conj().T @ Z
    assert_diagonal(G, atol=1e-10 * np.linalg.norm(A))
    assert np.all(np.diff(np.diag(G).real) <= 1e-12)


def test_takagi_zero_matrix():
    Z = takagi_truncated(np.zeros((4, 4), dtype=complex), 2)
    np.testing.assert_array_equal(Z, 0.0)


@pytest.mark.parametrize("K", [1, 2])
def test_takagi_lift_reconstructs_sinusoid_lift(K):
    v = weighted_sinusoid_mix(20, K, seed=3)
    U, s, V = randomized_lift_svd(v, K, seed=0)
    Z = takagi_factors(U, s, V)
    np.testing.assert_allclose(Z @ Z.T, ops.g_apply(v), atol=1e-8 * s[0])
