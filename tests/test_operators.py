import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from htgd import operators as ops


def randc(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------- weights ----------


def test_weight_vector_small():
    wv = ops.weight_vector(5)
    assert wv.counts.tolist() == [1, 2, 3, 2, 1]
    assert_allclose(wv.omega, np.sqrt([1, 2, 3, 2, 1]))
    assert ops.weight_vector(1).counts.tolist() == [1]
    assert ops.weight_vector(9).counts.tolist() == [1, 2, 3, 4, 5, 4, 3, 2, 1]


@pytest.mark.parametrize("N", [5, 9, 33])
def test_weight_vector_counts_skew_diagonals(N):
    # independent count: how many (j, k) cells of the n x n Hankel lift read x[m]
    n = (N + 1) // 2
    counts = np.zeros(N, dtype=int)
    for j in range(n):
        for k in range(n):
            counts[j + k] += 1
    assert ops.weight_vector(N).counts.tolist() == counts.tolist()
    # the Toeplitz lift reads each entry equally often
    counts_t = np.zeros(N, dtype=int)
    for j in range(n):
        for k in range(n):
            counts_t[n - 1 + j - k] += 1
    assert counts_t.tolist() == counts.tolist()


@pytest.mark.parametrize("N", [0, 4, -3])
def test_weight_vector_rejects_bad_length(N):
    with pytest.raises(ValueError):
        ops.weight_vector(N)


# ---------- dense lifts ----------


def test_hankel_lift_example():
    M = ops.hankel_lift(np.arange(1.0, 6.0))
    assert_allclose(M, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])


def test_toeplitz_lift_example():
    M = ops.toeplitz_lift(np.arange(1.0, 6.0))
    assert_allclose(M, [[3, 2, 1], [4, 3, 2], [5, 4, 3]])


def test_hankel_lift_basis_vectors():
    N = 7
    for m in range(N):
        e = np.zeros(N)
        e[m] = 1.0
        M = ops.hankel_lift(e)
        assert M.sum() == ops.weight_vector(N).counts[m]
        assert set(np.unique(M)) <= {0.0, 1.0}


def test_hankel_adjoint_of_ones():
    out = ops.hankel_adjoint(np.ones((3, 3)))
    assert_allclose(out, [1, 2, 3, 2, 1])


@pytest.mark.parametrize("lift,adj", [(ops.hankel_lift, ops.hankel_adjoint),
                                      (ops.toeplitz_lift, ops.toeplitz_adjoint)])
def test_lift_adjoint_inner_product(lift, adj):
    rng = np.random.default_rng(0)
    for N in (5, 9, 33):
        n = (N + 1) // 2
        x = randc(rng, N)
        M = randc(rng, n, n)
        lhs = np.vdot(lift(x), M)
        rhs = np.vdot(x, adj(M))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("lift,adj", [(ops.hankel_lift, ops.hankel_adjoint),
                                      (ops.toeplitz_lift, ops.toeplitz_adjoint)])
def test_adjoint_composition_is_weight(lift, adj):
    rng = np.random.default_rng(1)
    for N in (5, 33):
        x = randc(rng, N)
        assert_allclose(adj(lift(x)), ops.weight_vector(N).counts * x, rtol=1e-13)


# ---------- normalised lifts ----------


@pytest.mark.parametrize("N", [5, 33, 65, 257])
@pytest.mark.parametrize("apply_,adjoint", [(ops.g_apply, ops.g_adjoint),
                                            (ops.w_apply, ops.w_adjoint)])
def test_normalised_isometry(N, apply_, adjoint):
    rng = np.random.default_rng(N)
    for _ in range(5):
        v = randc(rng, N)
        back = adjoint(apply_(v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("apply_,adjoint", [(ops.g_apply, ops.g_adjoint),
                                            (ops.w_apply, ops.w_adjoint)])
def test_projection_pythagoras(apply_, adjoint):
    # || (I - P) M ||_F^2 = ||M||_F^2 - ||op* M||_2^2 for the orthogonal projector P
    rng = np.random.default_rng(7)
    N = 17
    n = (N + 1) // 2
    M = randc(rng, n, n)
    proj = apply_(adjoint(M))
    resid = M - proj
    lhs = np.linalg.norm(resid) ** 2
    rhs = np.linalg.norm(M) ** 2 - np.linalg.norm(adjoint(M)) ** 2
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(M) ** 2
    # idempotent, and structured matrices are fixed points
    assert_allclose(apply_(adjoint(proj)), proj, atol=1e-12)
    v = randc(rng, N)
    assert_allclose(apply_(adjoint(apply_(v))), apply_(v), atol=1e-12)


# ---------- fast paths vs dense ----------


def _is_11_smooth(P):
    for f in (2, 3, 5, 7, 11):
        while P % f == 0:
            P //= f
    return P == 1


def test_fft_length():
    # the smallest 11-smooth length >= 2n - 1, checked against a scan from 2n - 1
    for n in (1, 2, 3, 5, 6, 14, 16, 33, 128, 1024, 2048):
        P = ops.fft_length(n)
        assert P >= 2 * n - 1 and _is_11_smooth(P)
        assert not any(_is_11_smooth(Q) for Q in range(2 * n - 1, P))
    assert [ops.fft_length(n) for n in (1, 3, 6, 14, 33, 128, 1024, 2048)] == \
        [1, 5, 11, 27, 66, 256, 2048, 4096]


def kfft(X, P):
    """The K-major row transforms the kernels read: X (..., n, K) as X^T,
    transformed along its contiguous last axis, (..., K, P)."""
    return np.fft.fft(np.swapaxes(X, -2, -1), n=P, axis=-1)


def _adjoints(A, B, n):
    """G*(A B^H) and W*(A A^H) of one pair of n x K factors, through the
    solvers' kernel."""
    P = ops.fft_length(n)
    FA = kfft(A[None], P)
    h, hw = ops.adjoints_from_transforms(FA, kfft(B.conj()[None], P), FA, n)
    return h[0], hw[0]


def _assert_fast_paths_match_dense(rng, n, K):
    # every FFT entry point against its dense oracle: the range finder's
    # fast_lift_mul, then the solvers' kernels on K-major transforms
    P = ops.fft_length(n)
    v = randc(rng, 2 * n - 1)
    A, B = randc(rng, n, K), randc(rng, n, K)
    gv, wv = ops.lift_products_from_transforms(v[None], (kfft(A.conj()[None], P),), v[None],
                                               kfft(A[None], P))
    h, hw = _adjoints(A, B, n)
    for got, want in ((ops.fast_lift_mul(v, A), ops.g_apply(v) @ A),
                      (gv[0].T, ops.g_apply(v) @ A),
                      (wv[0].T, ops.w_apply(v) @ A),
                      (h, ops.g_adjoint(A @ B.conj().T)),
                      (hw, ops.w_adjoint(A @ A.conj().T))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,apply_", [("hankel", ops.g_apply), ("toeplitz", ops.w_apply)])
@pytest.mark.parametrize("n,K", [(3, 1), (16, 4), (33, 2)])
def test_fast_lift_mul_matches_dense(kind, apply_, n, K):
    # (G v) Z by the range finder's fast_lift_mul and by the solvers' kernel,
    # (W v) Z by the solvers' kernel
    rng = np.random.default_rng(n * 100 + K)
    P = ops.fft_length(n)
    v = randc(rng, 2 * n - 1)
    Z = randc(rng, n, K)
    gv, wv = ops.lift_products_from_transforms(v[None], (kfft(Z.conj()[None], P),), v[None],
                                               kfft(Z[None], P))
    got = [ops.fast_lift_mul(v, Z), gv[0].T] if kind == "hankel" else [wv[0].T]
    want = apply_(v) @ Z
    for g in got:
        assert g.shape == want.shape
        assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,adjoint", [("hankel", ops.g_adjoint), ("toeplitz", ops.w_adjoint)])
@pytest.mark.parametrize("n,K", [(4, 1), (16, 4), (64, 4), (256, 4)])
def test_fast_adjoint_lowrank_matches_dense(kind, adjoint, n, K):
    # G*(A B^H) and W*(A A^H), the adjoints the solvers take, by their kernel
    rng = np.random.default_rng(n + K)
    A = randc(rng, n, K)
    B = randc(rng, n, K)
    h, hw = _adjoints(A, B, n)
    got, want = (h, adjoint(A @ B.conj().T)) if kind == "hankel" else (hw, adjoint(A @ A.conj().T))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 6, 14])  # P = 2n - 1 = 5, 11, 27: odd, and no room to spare
def test_fast_paths_match_dense_at_odd_lengths(n):
    assert ops.fft_length(n) == 2 * n - 1
    _assert_fast_paths_match_dense(np.random.default_rng(n), n, 3)


def test_fast_lift_mul_identity_factor():
    rng = np.random.default_rng(2)
    n = 6
    v = randc(rng, 2 * n - 1)
    got = ops.fast_lift_mul(v, np.eye(n, dtype=complex))
    assert_allclose(got, ops.g_apply(v), atol=1e-12)


def test_fast_adjoint_unit_rank_example():
    n = 5
    e1 = np.zeros((n, 1), dtype=complex)
    e1[0] = 1.0
    want = np.zeros(2 * n - 1)
    want[0] = 1.0  # omega_1 = 1: the one skew-diagonal of e1 e1^H is the first
    h, hw = _adjoints(e1, e1, n)
    assert_allclose(h, want, atol=1e-12)
    want = np.zeros(2 * n - 1)
    want[n - 1] = 1.0 / np.sqrt(n)  # omega_n = sqrt(n): e1 e1^H lies on the main diagonal
    assert_allclose(hw, want, atol=1e-12)


def test_fast_paths_zero_input():
    n, K = 8, 3
    Z = np.zeros((n, K), dtype=complex)
    v = np.zeros(2 * n - 1, dtype=complex)
    assert not ops.fast_lift_mul(v, Z).any()
    assert not any(a.any() for a in _adjoints(Z, Z, n))


def test_fast_paths_batched():
    rng = np.random.default_rng(3)
    L, n, K = 3, 9, 2
    v = randc(rng, L, 2 * n - 1)
    Z = randc(rng, L, n, K)
    got = ops.fast_lift_mul(v, Z)
    for l in range(L):
        assert_allclose(got[l], ops.fast_lift_mul(v[l], Z[l]), atol=1e-12)


def test_fast_lift_mul_in_caller_buffers_is_the_same_product():
    # the range finder passes v's transform once and reuses its own buffers:
    # the products are bit for bit those of the plain call, and stale buffer
    # contents do not leak into them
    rng = np.random.default_rng(4)
    L, n, K = 3, 9, 2
    P = ops.fft_length(n)
    v = randc(rng, L, 2 * n - 1)
    Fv = ops.vector_transforms(v, P)
    out = np.full((L, K, P), np.nan, dtype=complex)
    rows = np.full((1, K, P), np.nan, dtype=complex)
    for Z, into in ((randc(rng, L, n, K), out), (randc(rng, 1, n, K), rows),
                    (randc(rng, L, n, K), out)):
        got = ops.fast_lift_mul(v, Z, Fv, into, out)
        assert np.shares_memory(got, out)
        np.testing.assert_array_equal(got, ops.fast_lift_mul(v, Z))
    # n = 1: every transform is the identity and the product is the one
    # element v Z, which numpy rounds differently when written over Z
    for _ in range(20):
        v, Z = randc(rng, 1), randc(rng, 1, 1)
        np.testing.assert_array_equal(ops.fast_lift_mul(v, Z), v[None, :] * Z)


@pytest.mark.parametrize("n,K", [(1, 1), (4, 2), (17, 3), (64, 4)])
@pytest.mark.parametrize("pattern", ["mhtgd", "chtgd"])
def test_adjoints_from_transforms_matches_dense(pattern, n, K):
    # the solvers' kernels, in both of their call patterns, with a channel axis
    rng = np.random.default_rng(10 * n + K)
    L = 3
    P = ops.fft_length(n)
    A = randc(rng, L, n, K)
    if pattern == "mhtgd":  # h_l = G*(z2_l z1_l^H), hw_l = W*(z1_l z1_l^H)
        B = randc(rng, L, n, K)
        C = B
        FC = kfft(C, P)
        h, hw = ops.adjoints_from_transforms(kfft(A, P), kfft(B.conj(), P), FC, n)
    else:  # h_l = G*(z_l z_l^T), hw = W*(z_1 z_1^H) of the anchor channel only
        B = A.conj()
        C = A[:1]
        FA = kfft(A, P)
        h, hw = ops.adjoints_from_transforms(FA, FA, FA[:1], n)
    assert h.shape == (L, 2 * n - 1) and hw.shape == (C.shape[0], 2 * n - 1)
    for l in range(L):
        want = ops.g_adjoint(A[l] @ B[l].conj().T)
        assert np.max(np.abs(h[l] - want)) <= 1e-10 * np.max(np.abs(want))
    for l in range(C.shape[0]):
        want = ops.w_adjoint(C[l] @ C[l].conj().T)
        assert np.max(np.abs(hw[l] - want)) <= 1e-10 * np.max(np.abs(want))
    # the lift products, both kinds in one call: (G v_l) X_l for every Hankel
    # factor X of channel l, and (W u_c) C_c, each returned K-major, (B, K, n)
    v = randc(rng, L, 2 * n - 1)
    u = randc(rng, C.shape[0], 2 * n - 1)
    if pattern == "mhtgd":  # (G v_l) z1_l and (G v_l) conj(z2_l): two Hankel factors per channel
        X = (A, B.conj())
        *gv, wu = ops.lift_products_from_transforms(
            v, tuple(kfft(x.conj(), P) for x in X), u, FC)
    else:  # (G v_l) conj(z_l) from the transforms of z_l, and W(u) z_1 of the anchor
        X = (A.conj(),)
        *gv, wu = ops.lift_products_from_transforms(v, (FA,), u, FA[:1])
    assert len(gv) == len(X) and wu.shape == C.swapaxes(-2, -1).shape
    for x, g in zip(X, gv):
        assert g.shape == x.swapaxes(-2, -1).shape
        for l in range(L):
            want = ops.g_apply(v[l]) @ x[l]
            assert np.max(np.abs(g[l].T - want)) <= 1e-10 * np.max(np.abs(want))
    for l in range(C.shape[0]):
        want = ops.w_apply(u[l]) @ C[l]
        assert np.max(np.abs(wu[l].T - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [5, 33])  # P = 9 and 66: an odd and an even length
def test_conj_transforms_equal_a_direct_fft_of_the_conjugate(n):
    P = ops.fft_length(n)
    assert P == {5: 9, 33: 66}[n]
    rng = np.random.default_rng(n)
    X = randc(rng, 2, 3, 4, n)
    got = ops.conj_transforms(ops.row_transforms(X))
    want = ops.row_transforms(X.conj())
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_ksum_is_bit_identical_to_sum_for_short_axes():
    # the K axis is -2: a running sum over it, and the reduction, agree bit for bit
    rng = np.random.default_rng(4)
    for K in (1, 2, 3, 16):
        A = randc(rng, 3, K, 64)
        B = randc(rng, 3, K, 64)
        for Bk in (B, B[:1]):
            running = A[:, 0] * Bk[:, 0]
            for k in range(1, K):
                running = running + A[:, k] * Bk[:, k]
            assert np.array_equal(ops._ksum(A, Bk), (A * Bk).sum(axis=-2))
            assert np.array_equal(ops._ksum(A, Bk), running)


def test_every_fft_of_the_package_is_made_in_operators():
    # the operators kernels make every FFT, so a count of their np.fft calls
    # counts all of a solve's FFTs
    src = Path(ops.__file__).parent
    outside = [p.name for p in sorted(src.glob("*.py"))
               if p.name != "operators.py" and re.search(r"\b(np|numpy)\.fft\b", p.read_text())]
    assert outside == []


def test_fast_paths_reject_bad_shapes():
    with pytest.raises(ValueError):
        ops.fast_lift_mul(np.zeros(6), np.zeros((4, 2)))


# ---------- properties ----------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), kind=st.sampled_from(["hankel", "toeplitz"]))
def test_fast_adjoint_consistent_with_inner_product(seed, n, kind):
    # vdot(lift* M, v) == vdot(M, lift v) for M = A B^H (Hankel) resp. A A^H
    # (Toeplitz), the adjoint taken by the solvers' kernel without forming M
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 4))
    N = 2 * n - 1
    v = randc(rng, N)
    A = randc(rng, n, K)
    B = randc(rng, n, K)
    h, hw = _adjoints(A, B, n)
    if kind == "hankel":
        adj, M, lift = h, A @ B.conj().T, ops.g_apply
    else:
        adj, M, lift = hw, A @ A.conj().T, ops.w_apply
    lhs = np.vdot(adj, v)
    rhs = np.vdot(M, lift(v))
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) <= 1e-9 * scale
