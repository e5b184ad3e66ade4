"""Truncated SVD and Takagi factorisations for solver initialisation.

Small lifted matrices (n <= _DENSE_LIMIT) go through a full dense SVD;
larger ones use a seeded randomized range finder whose products run
through the FFT fast paths, so no n x n matrix is ever formed.  Both
paths are deterministic for a fixed seed.  The range finder also takes
L stacked channels, which is how ``retrieval.esprit`` reduces the
n x nL matrix of channel lifts.

The Takagi factorisation A = U diag(s) U^T of a complex symmetric A is
recovered from the SVD A = Us diag(s) V^H by the per-column phase
correction U = Us sqrt(diag(Us^H conj(V))).  When singular values
cluster (gap below _CLUSTER_RTOL * s[0]) that diagonal degenerates to a
unitary symmetric block B, handled by its principal matrix square root;
the fallback is reported with a warning.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import sqrtm

from . import operators as ops
from .signals import make_rng

_DENSE_LIMIT = 384
_CLUSTER_RTOL = 1e-10
_OVERSAMPLE = 8
_POWER_ITERS = 2


def truncated_svd(M: np.ndarray, K: int) -> tuple:
    """Leading-K dense SVD; returns (U (n, K), s (K,), V (n, K))."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return U[:, :K], s[:K], Vh[:K].conj().T


def _range_finder_rng(seed):
    """Deterministic generator from an int seed or a tuple of ints."""
    if not isinstance(seed, (tuple, list)):
        seed = (seed,)
    words = tuple(int(s) & 0xFFFFFFFF for s in seed)
    return make_rng(np.random.SeedSequence(words + (0x5F4D,)))


def randomized_lift_svd(v: np.ndarray, K: int, seed) -> tuple:
    """Truncated SVD of E = [g_apply(v_1), ..., g_apply(v_L)] via a randomized range finder.

    ``v`` is one vector (N,) or L stacked channels (L, N); E is n x nL and
    the right factor comes back stacked the same way, (nL, K).  Every
    product runs through ``ops.fast_lift_mul``, using that each block M_l
    is complex symmetric: E^H X = [conj(M_l conj(X))]_l.  A (N,) call and
    a (1, N) call return bit-identical arrays.
    """
    v = np.atleast_2d(v)
    L, N = v.shape
    n = (N + 1) // 2
    r = min(n, K + _OVERSAMPLE)

    def blocks(X):  # [M_l X_l]_l for X (L, n, c), or [M_l X]_l for X (n, c)
        return ops.fast_lift_mul("hankel", v, X)

    def adjoint(Q):  # E^H Q, stacked (nL, c)
        return np.conj(blocks(Q.conj())).reshape(L * n, -1)

    rng = _range_finder_rng(seed)
    probe = rng.standard_normal((L, n, r)) + 1j * rng.standard_normal((L, n, r))
    Q, _ = np.linalg.qr(blocks(probe).sum(axis=0))
    for _ in range(_POWER_ITERS):
        Z, _ = np.linalg.qr(adjoint(Q))
        Q, _ = np.linalg.qr(blocks(Z.reshape(L, n, r)).sum(axis=0))
    B = blocks(Q.conj()).reshape(L * n, r).T  # Q^H E = (E^T conj(Q))^T, r x nL
    Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return U[:, :K], s[:K], Vh[:K].conj().T


def lift_truncated_svd(v: np.ndarray, K: int, seed=0) -> tuple:
    """Truncated SVD of the normalised Hankel lift of ``v``."""
    n = (v.shape[-1] + 1) // 2
    if K >= n + 1:
        raise ValueError(f"rank K={K} exceeds matrix size n={n}")
    if n <= _DENSE_LIMIT:
        return truncated_svd(ops.g_apply(v), K)
    return randomized_lift_svd(v, K, seed)


def _cluster_slices(s: np.ndarray) -> list:
    """Contiguous groups of near-equal singular values (descending order)."""
    if s.size == 0:
        return []
    tol = _CLUSTER_RTOL * s[0]
    bounds = [0]
    for i in range(1, s.size):
        if s[i - 1] - s[i] > tol:
            bounds.append(i)
    bounds.append(s.size)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _takagi_phase_correct(U: np.ndarray, s: np.ndarray, V: np.ndarray, K: int) -> tuple:
    """Rotate SVD left vectors into Takagi vectors; returns (U, used_block_fallback)."""
    U = U.copy()
    used_block = False
    if s.size == 0 or s[0] == 0.0:
        return U, used_block
    for sl in _cluster_slices(s):
        if sl.start >= K:
            break
        if s[sl.start] == 0.0:
            continue
        width = sl.stop - sl.start
        if width == 1:
            d = np.vdot(U[:, sl.start], V[:, sl.start].conj())
            mag = abs(d)
            d = d / mag if mag > 0 else 1.0
            U[:, sl.start] *= np.sqrt(d)
        else:
            B = U[:, sl].conj().T @ V[:, sl].conj()
            B = 0.5 * (B + B.T)  # unitary symmetric up to roundoff
            W = sqrtm(B)
            U[:, sl] = U[:, sl] @ W
            used_block = True
    return U, used_block


def takagi_truncated(A: np.ndarray, K: int) -> tuple:
    """Rank-K Takagi factors of a complex symmetric matrix.

    Returns (U (n, K), s (K,)) with A ~ U diag(s) U^T, the truncation
    optimal in Frobenius norm among rank-K symmetric approximants.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("expected a square matrix")
    scale = np.linalg.norm(A)
    if scale > 0 and np.linalg.norm(A - A.T) > 1e-8 * scale:
        raise ValueError("matrix is not complex symmetric")
    if not 1 <= K <= n:
        raise ValueError(f"rank K={K} must lie in [1, {n}]")
    U, s, Vh = np.linalg.svd(A)
    U, used_block = _takagi_phase_correct(U, s, Vh.conj().T, K)
    if used_block:
        warnings.warn("clustered singular values: used block phase correction",
                      stacklevel=2)
    return U[:, :K], s[:K]


def takagi_lift_truncated(v: np.ndarray, K: int, seed=0) -> tuple:
    """Rank-K Takagi factors of g_apply(v) without forming it at large n."""
    n = (v.shape[-1] + 1) // 2
    if n <= _DENSE_LIMIT:
        return takagi_truncated(ops.g_apply(v), K)
    U, s, V = randomized_lift_svd(v, K, seed)
    U, used_block = _takagi_phase_correct(U, s, V, K)
    if used_block:
        warnings.warn("clustered singular values: used block phase correction",
                      stacklevel=2)
    return U, s[:K]
