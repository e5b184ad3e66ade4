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

Products (G v) Z, (W v) Z and adjoints G*(A B^H), W*(A B^H) run as
cyclic convolutions of length ``fft_length(n)`` (the smallest 11-smooth
length >= 2n - 1, the shortest that is alias-free and fast) in
O(K N log N) time, never materialising an n x n matrix.
Every FFT of the package is made by the kernels here: ``row_transforms``
(factor transforms), ``lift_products_from_transforms`` and
``adjoints_from_transforms`` (products and adjoints from transforms the
caller already holds, as both solvers run them) and ``line_adjoints``
(the adjoints along a descent line A - eta A' as quadratics in eta, so a
line search needs no FFT).  ``fast_lift_mul`` and ``fast_adjoint_lowrank``
are compositions of ``row_transforms`` with the same kernel code.  The
dense lifts are the reference implementations used by tests and the
self-test command.  ``top_exponent`` and ``ldexp`` scale by powers of two.
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


@lru_cache(maxsize=None)
def fft_length(n: int) -> int:
    """Smallest 11-smooth length >= 2n - 1 (no prime factor above 11).

    Every product and adjoint of the kernels reads lags of at most 2n - 2,
    so cyclic convolutions of any length >= 2n - 1 are alias-free here;
    lengths whose factors numpy's FFT has radix passes for run fast, and
    2n - 1 itself may not be one of them (2047 = 23 * 89 took about five
    times as long as 2048).
    """
    P = max(2 * int(n) - 1, 1)
    while True:
        m = P
        for f in (2, 3, 5, 7, 11):
            while m % f == 0:
                m //= f
        if m == 1:
            return P
        P += 1


def top_exponent(a) -> int:
    """The e with the largest real or imaginary part of ``a`` / 2**e in [1/2, 1);
    ``a`` is float64 or complex128, as for :func:`ldexp`."""
    return int(np.frexp(np.max(np.abs(np.ascontiguousarray(a).view(np.float64)), initial=0.0))[1])


def ldexp(a, e: int) -> np.ndarray:
    """a * 2**e part by part, for a float64 or complex128 array: exact in the
    normal range, inf past it, and no warning for an inf or NaN part."""
    a = np.ascontiguousarray(a)
    with np.errstate(over="ignore"):
        return np.ldexp(a.view(np.float64), e).view(a.dtype)


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
# The ``fast_*`` routines accept leading batch axes (v is (..., N), factor
# matrices are (..., n, K), batch shapes broadcast exactly); the
# transform-level kernels take one batch axis B.

_KINDS = ("hankel", "toeplitz")


def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    return kind


def row_transforms(X: np.ndarray) -> np.ndarray:
    """FFT of the factor ``X`` (..., n, K) along its rows at length
    ``fft_length(n)``: the (..., P, K) transforms the kernels read."""
    return np.fft.fft(X, n=fft_length(X.shape[-2]), axis=-2)


def _vector_transforms(v: np.ndarray, P: int) -> np.ndarray:
    """FFT of v / omega at length P, (..., P, 1) to broadcast over columns."""
    return np.fft.fft(v / weight_vector(v.shape[-1]).omega, n=P, axis=-1)[..., None]


def _product(kind: str, Fv: np.ndarray, FZ: np.ndarray) -> np.ndarray:
    """Transform of the cyclic product holding (lift v) Z, from ``Fv`` and
    ``FZ``, the row transform of conj(Z) for "hankel" and of Z for "toeplitz"."""
    return Fv * FZ.conj() if kind == "hankel" else Fv * FZ


def _product_rows(kind: str, out: np.ndarray, n: int) -> np.ndarray:
    """The rows of the cyclic product ``out`` (..., P, K) that are (lift v) Z."""
    # row j of (G v) Z is sum_k u[j + k] Z[k, :], a correlation; row j of
    # (W v) Z is sum_k u[n - 1 + j - k] Z[k, :], a convolution
    return out[..., :n, :] if kind == "hankel" else out[..., n - 1:2 * n - 1, :]


def fast_lift_mul(kind: str, v: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Product (G v) Z for kind="hankel" or (W v) Z for kind="toeplitz".

    ``v`` is (..., 2n - 1) and ``Z`` (..., n, K); the result is (..., n, K),
    equal to ``g_apply(v) @ Z`` resp. ``w_apply(v) @ Z`` up to roundoff, at
    O(K N log N) cost.
    """
    kind = _check_kind(kind)
    v, Z = np.asarray(v), np.asarray(Z)
    n = Z.shape[-2]
    if v.shape[-1] != 2 * n - 1:
        raise ValueError(f"vector length {v.shape[-1]} does not match factor rows {n}")
    FZ = row_transforms(Z.conj() if kind == "hankel" else Z)
    prod = _product(kind, _vector_transforms(v, FZ.shape[-2]), FZ)
    return _product_rows(kind, np.fft.ifft(prod, axis=-2), n)


def _blocks(stacked: np.ndarray, parts: list) -> list:
    """``stacked`` cut along axis 0 into consecutive blocks as long as ``parts``."""
    blocks, start = [], 0
    for part in parts:
        blocks.append(stacked[start:start + len(part)])
        start += len(part)
    return blocks


def _lift_adjoints(n: int, hankel: list, toeplitz: list) -> tuple:
    """G*(A B^H) for each K-summed transform product s = sum_k FA * FBc of
    ``hankel``, and W*(A B^H) for each s = sum_k FA * conj(FB) of
    ``toeplitz``, each s (B, P), all in one inverse FFT; returns the two
    lists of (B, 2n - 1) adjoints."""
    N = 2 * n - 1
    out = np.fft.ifft(np.concatenate(hankel + toeplitz), axis=-1)
    w = weight_vector(N).omega
    B_h = sum(len(s) for s in hankel)
    # skew-diagonal sums of A B^H are the first N entries of the
    # convolution; diagonal sums the correlation at lags m - (n - 1)
    h = out[:B_h, :N] / w
    hw = out[B_h:, (np.arange(N) - (n - 1)) % out.shape[-1]] / w
    return _blocks(h, hankel), _blocks(hw, toeplitz)


def fast_adjoint_lowrank(kind: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """G*(A B^H) for kind="hankel" or W*(A B^H) for kind="toeplitz".

    ``A`` and ``B`` are (..., n, K); the result is a (..., 2n - 1) vector
    equal to ``g_adjoint(A @ B.conj().T)`` resp. ``w_adjoint(...)`` up to
    roundoff, computed in O(K N log N) without forming A B^H.
    """
    kind = _check_kind(kind)
    A, B = np.asarray(A), np.asarray(B)
    n = A.shape[-2]
    if B.shape[-2] != n or A.shape[-1] != B.shape[-1]:
        raise ValueError(f"factor shapes {A.shape} and {B.shape} do not match")
    FA = row_transforms(A)
    if kind == "hankel":
        s = _ksum(FA, row_transforms(B.conj()))
    else:
        s = _ksum(FA, (FA if B is A else row_transforms(B)).conj())
    flat = [s.reshape(-1, s.shape[-1])]
    h, hw = _lift_adjoints(n, flat, []) if kind == "hankel" else _lift_adjoints(n, [], flat)
    return (h + hw)[0].reshape(s.shape[:-1] + (2 * n - 1,))


def _ksum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A[..., k] * B[..., k] as a running sum.

    Bit-identical to ``(A * B).sum(axis=-1)`` for K <= 3, and several times
    faster on the short last axis the factor transforms have.
    """
    s = A[..., 0] * B[..., 0]
    for k in range(1, A.shape[-1]):
        s += A[..., k] * B[..., k]
    return s


def lift_products_from_transforms(v: np.ndarray, FZcs: tuple, u: np.ndarray,
                                  FC: np.ndarray) -> tuple:
    """(G v) Z for each Z of a tuple, and (W u) C, from transforms the
    caller already holds.

    ``FZcs`` holds the :func:`row_transforms` of conj(Z) for each Z, each
    (B_h, P, K), and ``FC`` that of C, (B_w, P, K); ``v`` is (B_h, 2n - 1)
    and ``u`` (B_w, 2n - 1).  All products share one batched FFT of
    v / omega and u / omega and one batched inverse FFT; returns the
    (G v) Z in the order of ``FZcs``, then (W u) C, each (B, n, K).
    """
    n = (v.shape[-1] + 1) // 2
    Fvu = _vector_transforms(np.concatenate([v, u]), FC.shape[-2])
    Fv, Fu = Fvu[:len(v)], Fvu[len(v):]
    out = np.fft.ifft(np.concatenate([_product("hankel", Fv, FZc) for FZc in FZcs]
                                     + [_product("toeplitz", Fu, FC)]), axis=-2)
    *hankel, toeplitz = _blocks(out, [*FZcs, FC])
    return (*(_product_rows("hankel", h, n) for h in hankel), _product_rows("toeplitz", toeplitz, n))


def adjoints_from_transforms(FA: np.ndarray, FBc: np.ndarray, FC: np.ndarray,
                             n: int) -> tuple:
    """G*(A B^H) and W*(C C^H) from transforms the caller already holds.

    ``FA``, ``FBc`` and ``FC`` are the :func:`row_transforms` of A, conj(B)
    and C, each (B_h, P, K) resp. (B_w, P, K).  Both adjoints share one
    batched inverse FFT; returns (h, hw) of shapes (B_h, 2n - 1) and
    (B_w, 2n - 1).
    """
    (h,), (hw,) = _lift_adjoints(n, [_ksum(FA, FBc)], [_ksum(FC, FC.conj())])
    return h, hw


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
    (h1, h2), (hw1, hw2) = _lift_adjoints(
        n, [_ksum(FA, GBc) + _ksum(GA, FBc), _ksum(GA, GBc)],
        [_ksum(FC, GCc) + _ksum(GC, FC.conj()), _ksum(GC, GCc)])
    return h1, h2, hw1, hw2
