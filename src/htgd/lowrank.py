"""Randomized truncated SVD of lifts, and Takagi factors, for initialisation.

``randomized_lift_svd`` is the one lift factorisation of the package: the
seeded randomized range finder of Halko, Martinsson & Tropp (*Finding
structure with randomness*, SIAM Review 2011), with every product taken
through ``operators.fast_lift_mul``, so no n x n matrix is ever formed.
With r = min(n, K + 8) probe columns the range is exact when r = n. The
shape of the input picks what is factored:

* the last two axes (L, N) are joined: the result is the SVD of the
  n x nL matrix E = [G v_1, ..., G v_L], as ``retrieval.esprit`` uses it,
  and a (N,) input is the same as (1, N);
* leading axes are independent batch entries, factored by stacked
  ``np.linalg.qr`` and ``np.linalg.svd`` calls.  Entry i draws its probe
  from the seed words followed by its index, so a batched call is
  bit-identical to one call per entry with seed (seed, *i).  The spectral
  inits factor their L channels as one (L, 1, N) batch this way.

``takagi_factors`` turns such an SVD of a complex symmetric matrix into
Takagi factors by one real symmetric eigenproblem: for S = X + iY complex
symmetric, the eigenvectors [a; b] of [[X, Y], [Y, -X]] with positive
eigenvalues give its Takagi vectors a + ib, and the eigenvalues its Takagi
values (Horn & Johnson, *Matrix Analysis*, 2nd ed., 4.4).  Tied values need
no special case.  The package needs numpy alone.
"""

from __future__ import annotations

import numpy as np

from . import operators as ops
from .signals import make_rng

_OVERSAMPLE = 8
_POWER_ITERS = 2


def _range_finder_rng(words: tuple):
    """Deterministic generator from a tuple of ints."""
    words = tuple(int(w) & 0xFFFFFFFF for w in words)
    return make_rng(np.random.SeedSequence(words + (0x5F4D,)))


def randomized_lift_svd(v: np.ndarray, K: int, seed) -> tuple:
    """Rank-K truncated SVD of E = [g_apply(v_1), ..., g_apply(v_L)] per batch entry.

    ``v`` is (..., L, N), or one vector (N,) taken as (1, N); ``seed`` an
    int or a tuple of ints.  Returns U (..., n, K), s (..., K) and the
    right factor stacked like E's columns, V (..., nL, K).  Every product
    runs through ``ops.fast_lift_mul``, using that each block M_l = G v_l is
    complex symmetric: E^H X = [G(conj v_l) X]_l, since M_l^H = conj(M_l) =
    G(conj v_l), and Q^H E = (E^T conj(Q))^T = [M_l conj(Q)]_l^T.  Raises
    ``ValueError`` unless N is odd and 1 <= K <= n.
    """
    v = np.atleast_2d(v)
    batch, (L, N) = v.shape[:-2], v.shape[-2:]
    n = (ops._check_odd_length(N) + 1) // 2
    if not 1 <= K <= n:
        raise ValueError(f"rank K={K} must lie in [1, {n}]")
    r = min(n, K + _OVERSAMPLE)

    def blocks(X):  # [M_l X_l]_l for X (..., L, n, c), or [M_l X]_l for X (..., 1, n, c)
        return ops.fast_lift_mul("hankel", v, X)

    vc = v.conj()

    def adjoint(Q):  # E^H Q = [G(conj v_l) Q]_l, stacked (..., nL, c)
        return ops.fast_lift_mul("hankel", vc, Q[..., None, :, :]).reshape(batch + (L * n, -1))

    words = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    probe = np.empty(batch + (L, n, r), dtype=complex)
    for i in np.ndindex(batch):
        rng = _range_finder_rng(words + i)
        probe[i] = rng.standard_normal((L, n, r)) + 1j * rng.standard_normal((L, n, r))
    Q, _ = np.linalg.qr(blocks(probe).sum(axis=-3))
    for _ in range(_POWER_ITERS):
        Z, _ = np.linalg.qr(adjoint(Q))
        Q, _ = np.linalg.qr(blocks(Z.reshape(batch + (L, n, r))).sum(axis=-3))
    # Q^H E = (E^T conj(Q))^T, r x nL
    B = np.swapaxes(blocks(Q.conj()[..., None, :, :]).reshape(batch + (L * n, r)), -1, -2)
    Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return U[..., :K], s[..., :K], np.swapaxes(Vh[..., :K, :], -1, -2).conj()


def takagi_factors(U: np.ndarray, s: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rank-K Takagi factors Z of truncated SVDs A ~ U diag(s) V^H of complex
    symmetric matrices, given as (..., n, K), (..., K), (..., n, K) over
    leading batch axes.

    Z (..., n, K) satisfies Z Z^T = U S U^T, the two-sided projection of the
    SVD with S = U^H (U diag(s) V^H) conj(U), K x K.  S = W diag(lam) W^T is
    factored by the real embedding of the module docstring, and
    Z = U W diag(lam)^(1/2); Z^H Z = diag(lam), the Takagi values of S in
    descending order.
    """
    K = U.shape[-1]
    S = s[..., :, None] * (np.swapaxes(V, -2, -1).conj() @ U.conj())
    S = 0.5 * (S + np.swapaxes(S, -2, -1))  # symmetric up to roundoff
    lam, X = np.linalg.eigh(np.block([[S.real, S.imag], [S.imag, -S.real]]))
    X, lam = X[..., ::-1][..., :K], lam[..., ::-1][..., :K]  # the K largest: Takagi values
    W = X[..., :K, :] + 1j * X[..., K:, :]
    return U @ W * np.sqrt(np.maximum(lam, 0.0))[..., None, :]
