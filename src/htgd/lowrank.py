"""Randomized truncated SVD of lifts, and Takagi vectors, for initialisation.

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

The Takagi factorisation A = U diag(s) U^T of a complex symmetric A is
recovered from the SVD A = Us diag(s) V^H by the per-column phase
correction U = Us sqrt(diag(Us^H conj(V))).  When singular values
cluster (gap below _CLUSTER_RTOL * s[0]) that diagonal degenerates to a
symmetric block B = Us^H conj(V), and the cluster's vectors become Us W
for a symmetric square root W of B (``_symmetric_sqrt``); the block is
reported with a warning.  The root is a Denman-Beavers iteration on cB,
where the unit c turns the middle of the widest gap between B's
eigenvalue angles to -1, so cB has a principal root; W = conj(c)^{1/2}
times that root.  B is unitary when the range finder captures the whole
cluster, but not always: in the constant-amplitude inits at N=33, L=2,
K=3, M=1 (model and mask seeds 0-4) it caught part of the cluster, and the
10 blocks had max |B^H B - I| of 0.37-0.93.  A Cayley-transform root,
exact only for unitary B, missed max |W^2 - B| by 0.20-0.78 on them, this
one by at most 6.6e-16.  The iteration inverts its iterates, so on a singular
B it finds no root; a W that fails ||W^2 - B|| <= _ROOT_CHECK ||B|| is
not used, and the cluster keeps its SVD vectors, as a zero diagonal entry
keeps its column.  The package needs numpy alone.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import operators as ops
from .signals import make_rng

_CLUSTER_RTOL = 1e-10
_OVERSAMPLE = 8
_POWER_ITERS = 2
_ROOT_RTOL = 1e-15   # relative change of Y that ends the square-root iteration
_ROOT_ITERS = 64     # its step cap: ill-conditioned blocks level off above _ROOT_RTOL
_ROOT_CHECK = 1e-8   # largest ||W^2 - B|| / ||B|| taken as a root


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


def _symmetric_sqrt(B: np.ndarray) -> np.ndarray | None:
    """A symmetric square root W of the complex symmetric B, W @ W = B, or
    None when none is found: an iterate is singular, or W misses
    ||W^2 - B|| <= _ROOT_CHECK ||B||, as on a singular B (module docstring).

    c = exp(i (pi - mid)) turns the middle ``mid`` of the widest gap
    between B's eigenvalue angles to -1, so cB has no eigenvalue on the
    negative real axis; the Denman-Beavers iteration (Denman & Beavers,
    *Appl. Math. Comput.* 2, 1976) Y <- (Y + Z^{-1}) / 2, Z <- (Z + Y^{-1}) / 2
    from (cB, I) takes Y to the principal root of cB, and
    W = conj(c)^{1/2} Y.  Every iterate is a rational function of B, so
    symmetric up to roundoff.  It stops once Y changes by at most
    _ROOT_RTOL relative, or after _ROOT_ITERS steps, since on an
    ill-conditioned B the change levels off above that.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: None below
        try:
            angles = np.sort(np.angle(np.linalg.eigvals(B)))
            gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
            i = np.argmax(gaps)
            c = -np.exp(-1j * (angles[i] + 0.5 * gaps[i]))
            Y, Z = c * B, np.eye(len(B), dtype=complex)
            for _ in range(_ROOT_ITERS):
                Y, Z, prev = 0.5 * (Y + np.linalg.inv(Z)), 0.5 * (Z + np.linalg.inv(Y)), Y
                if np.linalg.norm(Y - prev) <= _ROOT_RTOL * np.linalg.norm(Y):
                    break
        except np.linalg.LinAlgError:  # a singular iterate
            return None
        W = np.sqrt(np.conj(c)) * Y
        resid = np.linalg.norm(W @ W - B)
    if not resid <= _ROOT_CHECK * np.linalg.norm(B):  # NaN fails too
        return None
    return W


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
            B = 0.5 * (B + B.T)  # symmetric up to roundoff
            W = _symmetric_sqrt(B)
            if W is not None:  # a singular block keeps its SVD vectors, as a zero d does
                U[:, sl] = U[:, sl] @ W
            used_block = True
    return U, used_block


def takagi_vectors(U: np.ndarray, s: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Takagi vectors from truncated SVDs (U, s, V) of complex symmetric
    matrices, each (..., n, K), (..., K), (..., n, K) over leading batch axes.

    With them each matrix is approximated by U diag(s) U^T.  Warns once
    when any entry needed the clustered-values block correction.
    """
    out = np.empty_like(U)
    used_block = False
    for i in np.ndindex(U.shape[:-2]):
        out[i], used = _takagi_phase_correct(U[i], s[i], V[i], U.shape[-1])
        used_block |= used
    if used_block:
        warnings.warn("clustered singular values: used block phase correction",
                      stacklevel=2)
    return out
