"""Structured lifts between length-N vectors and n x n matrices, N = 2n - 1.

Index conventions (formulas 1-based, arrays 0-based):

* Hankel lift:    (H x)[j, k] = x[j + k - 1]
* Toeplitz lift:  (T t)[j, k] = t[n + j - k]

Entry m of the input vector lands on a (skew-)diagonal that covers
``a_m = min(m, N + 1 - m)`` matrix cells, so the adjoint compositions
satisfy H*H = T*T = D^2 with D = diag(omega), omega = sqrt(a).  The
normalised lifts

    G v = H(v / omega),      W v = T(v / omega)

are isometries (G*G = W*W = I), which makes G G* and W W* the orthogonal
projectors onto Hankel- and Toeplitz-structured matrices in the lifted
geometry.

The ``fast_*`` routines evaluate (G v) Z, (W v) Z and G*(A B^H),
W*(A B^H) through cyclic convolutions of length ``fft_length(n)`` (the
smallest power of two >= 2n) in O(K N log N) time, never materialising
an n x n matrix.  ``adjoints_from_transforms`` is the form both solvers
run: G*(A B^H) and W*(C C^H) from factor transforms the caller already
holds; ``line_adjoints`` gives the same adjoints along a descent line
A - eta A' as quadratics in eta, so a line search needs no FFT.  The dense lifts are the reference implementations used by tests
and the self-test command.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class WeightVector:
    """Skew-diagonal multiplicities ``counts`` and their square roots ``omega``."""

    counts: np.ndarray
    omega: np.ndarray


def _check_odd_length(N: int) -> int:
    N = int(N)
    if N < 1 or N % 2 == 0:
        raise ValueError(f"vector length must be odd and positive, got {N}")
    return N


@lru_cache(maxsize=None)
def _cached_weights(N: int) -> WeightVector:
    j = np.arange(1, N + 1)
    counts = np.minimum(j, N + 1 - j)
    omega = np.sqrt(counts.astype(float))
    counts.setflags(write=False)
    omega.setflags(write=False)
    return WeightVector(counts=counts, omega=omega)


def weight_vector(N: int) -> WeightVector:
    """Multiplicity of each skew-diagonal of an n x n Hankel matrix, N = 2n - 1."""
    return _cached_weights(_check_odd_length(N))


def fft_length(n: int) -> int:
    """Smallest power of two >= 2n; cyclic convolutions of this length are alias-free here."""
    return 1 << (2 * int(n) - 1).bit_length()


# ---------- dense lifts (reference implementations) ----------


def hankel_lift(x: np.ndarray) -> np.ndarray:
    """Map a length-(2n-1) vector to the n x n Hankel matrix M[j, k] = x[j + k]."""
    x = np.asarray(x)
    N = _check_odd_length(x.shape[-1])
    n = (N + 1) // 2
    idx = np.add.outer(np.arange(n), np.arange(n))
    return x[..., idx]


def hankel_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of ``hankel_lift``: sum matrix entries along each skew-diagonal."""
    M = np.asarray(M)
    n = M.shape[-1]
    if M.shape[-2] != n:
        raise ValueError("expected a square matrix")
    N = 2 * n - 1
    idx = np.add.outer(np.arange(n), np.arange(n))
    out = np.zeros(M.shape[:-2] + (N,), dtype=M.dtype)
    np.add.at(out, (..., idx), M)
    return out


def toeplitz_lift(t: np.ndarray) -> np.ndarray:
    """Map a length-(2n-1) vector to the n x n Toeplitz matrix M[j, k] = t[n-1 + j - k]."""
    t = np.asarray(t)
    N = _check_odd_length(t.shape[-1])
    n = (N + 1) // 2
    idx = (n - 1) + np.subtract.outer(np.arange(n), np.arange(n))
    return t[..., idx]


def toeplitz_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of ``toeplitz_lift``: sum matrix entries along each diagonal."""
    M = np.asarray(M)
    n = M.shape[-1]
    if M.shape[-2] != n:
        raise ValueError("expected a square matrix")
    N = 2 * n - 1
    idx = (n - 1) + np.subtract.outer(np.arange(n), np.arange(n))
    out = np.zeros(M.shape[:-2] + (N,), dtype=M.dtype)
    np.add.at(out, (..., idx), M)
    return out


# ---------- normalised lifts ----------


def g_apply(v: np.ndarray) -> np.ndarray:
    """Normalised Hankel lift G v = H(v / omega); G*G = I."""
    v = np.asarray(v)
    w = weight_vector(v.shape[-1]).omega
    return hankel_lift(v / w)


def g_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of ``g_apply``; G G* projects onto Hankel structure."""
    out = hankel_adjoint(M)
    return out / weight_vector(out.shape[-1]).omega


def w_apply(v: np.ndarray) -> np.ndarray:
    """Normalised Toeplitz lift W v = T(v / omega); W*W = I."""
    v = np.asarray(v)
    w = weight_vector(v.shape[-1]).omega
    return toeplitz_lift(v / w)


def w_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of ``w_apply``; W W* projects onto Toeplitz structure."""
    out = toeplitz_adjoint(M)
    return out / weight_vector(out.shape[-1]).omega


# ---------- FFT fast paths ----------
#
# All four routines accept leading batch axes: v is (..., N), factor
# matrices are (..., n, K), and batch shapes must broadcast exactly.

_KINDS = ("hankel", "toeplitz")


def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    return kind


def _lift_mul(kind: str, v: np.ndarray, Z: np.ndarray) -> np.ndarray:
    n = Z.shape[-2]
    N = 2 * n - 1
    if v.shape[-1] != N:
        raise ValueError(f"vector length {v.shape[-1]} does not match factor rows {n}")
    u = v / weight_vector(N).omega
    P = fft_length(n)
    Fu = np.fft.fft(u, n=P, axis=-1)[..., :, None]
    if kind == "hankel":
        # row j of (G v) Z is sum_k u[j + k] Z[k, :]: a correlation
        FZ = np.fft.fft(Z.conj(), n=P, axis=-2)
        out = np.fft.ifft(Fu * FZ.conj(), axis=-2)
        return out[..., :n, :]
    # row j of (W v) Z is sum_k u[n - 1 + j - k] Z[k, :]: a convolution
    FZ = np.fft.fft(Z, n=P, axis=-2)
    out = np.fft.ifft(Fu * FZ, axis=-2)
    return out[..., n - 1 : 2 * n - 1, :]


def fast_lift_mul(kind: str, v: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Product (G v) Z for kind="hankel" or (W v) Z for kind="toeplitz".

    Parameters
    ----------
    kind : {"hankel", "toeplitz"}
        Which normalised lift to apply to ``v``.
    v : (..., N) complex
        Vector argument of the lift, N = 2n - 1.
    Z : (..., n, K) complex
        Right factor.

    Returns
    -------
    (..., n, K) complex, equal to ``g_apply(v) @ Z`` resp. ``w_apply(v) @ Z``
    up to roundoff, at O(K N log N) cost.
    """
    return _lift_mul(_check_kind(kind), np.asarray(v), np.asarray(Z))


def _adjoint_lowrank(kind: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[-2]
    if B.shape[-2] != n or A.shape[-1] != B.shape[-1]:
        raise ValueError(f"factor shapes {A.shape} and {B.shape} do not match")
    N = 2 * n - 1
    P = fft_length(n)
    FA = np.fft.fft(A, n=P, axis=-2)
    if kind == "hankel":
        # skew-diagonal sums of A B^H: per-column convolutions A_q * conj(B_q)
        FBc = np.fft.fft(B.conj(), n=P, axis=-2)
        s = (FA * FBc).sum(axis=-1)
        raw = np.fft.ifft(s, axis=-1)[..., :N]
    else:
        # diagonal sums of A B^H: per-column correlations at lags m - (n - 1)
        FB = FA if B is A else np.fft.fft(B, n=P, axis=-2)
        s = (FA * FB.conj()).sum(axis=-1)
        c = np.fft.ifft(s, axis=-1)
        raw = c[..., (np.arange(N) - (n - 1)) % P]
    return raw / weight_vector(N).omega


def fast_adjoint_lowrank(kind: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """G*(A B^H) for kind="hankel" or W*(A B^H) for kind="toeplitz".

    ``A`` and ``B`` are (..., n, K); the result is a (..., 2n - 1) vector
    equal to ``g_adjoint(A @ B.conj().T)`` resp. ``w_adjoint(...)`` up to
    roundoff, computed in O(K N log N) without forming A B^H.
    """
    return _adjoint_lowrank(_check_kind(kind), np.asarray(A), np.asarray(B))


def _ksum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A[..., k] * B[..., k] as a running sum.

    Bit-identical to ``(A * B).sum(axis=-1)`` for K <= 3, and several times
    faster on the short last axis the factor transforms have.
    """
    s = A[..., 0] * B[..., 0]
    for k in range(1, A.shape[-1]):
        s += A[..., k] * B[..., k]
    return s


def _lifts_from_sums(s_h: np.ndarray, s_w: np.ndarray, n: int) -> tuple:
    """Normalised Hankel and Toeplitz adjoints from the K-summed transform
    products ``s_h`` (B_h, P) and ``s_w`` (B_w, P), in one batched inverse FFT."""
    N = 2 * n - 1
    w = weight_vector(N).omega
    out = np.fft.ifft(np.concatenate([s_h, s_w], axis=0), axis=-1)
    B_h = s_h.shape[0]
    h = out[:B_h, :N] / w
    hw = out[B_h:, (np.arange(N) - (n - 1)) % s_w.shape[-1]] / w
    return h, hw


def adjoints_from_transforms(FA: np.ndarray, FBc: np.ndarray, FC: np.ndarray,
                             n: int) -> tuple:
    """G*(A B^H) and W*(C C^H) from transforms the caller already holds.

    ``FA``, ``FBc`` and ``FC`` are the length-``fft_length(n)`` FFTs along
    the row axis of A, conj(B) and C, each (B_h, P, K) resp. (B_w, P, K).
    Both adjoints share one batched inverse FFT; returns (h, hw) of
    shapes (B_h, 2n - 1) and (B_w, 2n - 1).
    """
    return _lifts_from_sums(_ksum(FA, FBc), _ksum(FC, FC.conj()), n)


def line_adjoints(FA: np.ndarray, FBc: np.ndarray, FC: np.ndarray,
                  GA: np.ndarray, GBc: np.ndarray, GC: np.ndarray, n: int) -> tuple:
    """The adjoints of :func:`adjoints_from_transforms` along a line, as
    quadratics in a real step eta.

    ``GA``, ``GBc`` and ``GC`` are the transforms of the direction A', conj(B')
    and C', laid out like ``FA``, ``FBc`` and ``FC``.  Returns
    (h1, h2, hw1, hw2) such that

        G*((A - eta A')(B - eta B')^H) = h0 - eta h1 + eta^2 h2,
        W*((C - eta C')(C - eta C')^H) = hw0 - eta hw1 + eta^2 hw2,

    with (h0, hw0) = ``adjoints_from_transforms(FA, FBc, FC, n)``.  All four
    share one batched inverse FFT, so each eta then costs O(B N).
    """
    GCc = GC.conj()
    s1 = _ksum(FA, GBc) + _ksum(GA, FBc)
    s2 = _ksum(GA, GBc)
    sw1 = _ksum(FC, GCc) + _ksum(GC, FC.conj())
    sw2 = _ksum(GC, GCc)
    h, hw = _lifts_from_sums(np.concatenate([s1, s2]), np.concatenate([sw1, sw2]), n)
    return h[:len(s1)], h[len(s1):], hw[:len(sw1)], hw[len(sw1):]

