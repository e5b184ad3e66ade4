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

Products (G v) Z, (W v) Z and adjoints G*(A B^H), W*(C C^H) run as
cyclic convolutions of length ``fft_length(n)`` (the smallest 11-smooth
length >= 2n - 1, the shortest that is alias-free and fast) in
O(K N log N) time, never materialising an n x n matrix.

Each lift operation has one FFT entry point.  The kernels the solvers run
read factors K-major: an n x K factor Z is held as Z^T, (..., K, n), so
each of its K columns is a contiguous row.  Every FFT then runs along the
contiguous last axis, giving (..., K, P) transforms, and every sum over
the K columns is one reduction over axis -2.  ``row_transforms`` makes the
factor transforms (``conj_transforms`` derives those of conj(Z) from them
by frequency reversal, with no FFT); ``lift_products_from_transforms``
and ``adjoints_from_transforms`` make the products and adjoints from
transforms the caller already holds (every point of a descent, start
point and line-search trial alike, makes its lifts through
``adjoints_from_transforms``).  ``fast_lift_mul`` is the randomized range
finder's Hankel product (G v) Z in the (..., n, K) layout, a convolution
with the row-flipped factor, so it conjugates nothing; it multiplies by
the ``vector_transforms`` of v, which a caller making several products
with one v makes once, and works in buffers the caller may own.  Every
FFT of the package is made by these five.  The dense lifts are the reference
implementations used by tests and the self-test command.  ``top_exponent``
and ``ldexp`` scale by powers of two.
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
# One entry point per operation.  ``fast_lift_mul`` accepts leading batch
# axes (v is (..., N), Z is (..., n, K), batch shapes broadcast).
# The transform-level kernels read factors K-major: a factor Z (n x K) is
# held as Z^T, (..., K, n), so its K columns are rows of contiguous memory,
# every FFT runs along the last axis and every sum over the K columns is
# one reduction over axis -2.  Their transforms are (..., K, P), with one
# batch axis B in front.
#
# In a cyclic product of length P, row j of (G v) Z, sum_k u[j + k] Z[k, :],
# is a correlation and sits at entry j; row j of (W v) Z,
# sum_k u[n - 1 + j - k] Z[k, :], is a convolution and sits at entry
# n - 1 + j.  The skew-diagonal sums of A B^H (Hankel lags) are the first
# N entries of a convolution; the diagonal sums of C C^H (Toeplitz lags)
# are a correlation at lags m - (n - 1): the last n - 1 entries (the
# negative lags), then the first n.


def row_transforms(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """FFT of the K-major factor ``X`` (..., K, n) along its rows, the last
    axis, at length ``fft_length(n)``: the (..., K, P) transforms the kernels
    read, written into ``out`` when one is given."""
    return np.fft.fft(X, n=fft_length(X.shape[-1]), axis=-1, out=out)


def conj_transforms(F: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The row transforms of conj(X) from those of X, ``F`` (..., K, P), by
    frequency reversal, FFT(conj x)[m] = conj(FFT(x)[-m mod P]), written
    into ``out``: no FFT and no conjugate copy of X."""
    np.conjugate(F[..., :1], out=out[..., :1])
    np.conjugate(F[..., :0:-1], out=out[..., 1:])
    return out


def vector_transforms(v: np.ndarray, P: int) -> np.ndarray:
    """FFT of v / omega along the last axis at length ``P``, (..., P): the
    transform of the lift vector that :func:`fast_lift_mul` multiplies by."""
    return np.fft.fft(v / weight_vector(v.shape[-1]).omega, n=P, axis=-1)


def fast_lift_mul(v: np.ndarray, Z: np.ndarray, Fv: np.ndarray | None = None,
                  rows: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Product (G v) Z, the randomized range finder's lift product.

    ``v`` is (..., 2n - 1) and ``Z`` (..., n, K); the result is (..., n, K),
    equal to ``g_apply(v) @ Z`` up to roundoff, at O(K N log N) cost.  It is
    read as a convolution like (W v) Z: row j, sum_k u[j + k] Z[k, :], is
    sum_k u[n - 1 + j - k] Zf[k, :] for the row-flipped factor
    Zf[k] = Z[n - 1 - k], so no array is conjugated.

    Z is written K-major, row-flipped and zero-padded into ``rows``, (..., K,
    P) with Z's batch shape and P = ``fft_length(n)``, and transformed there;
    the product is made in ``out``, of the broadcast (..., K, P) shape, and
    inverted there, and the result is a view of ``out``.  A caller making
    several products passes ``Fv``, the :func:`vector_transforms` of v at
    length P, and its own buffers, and ``out`` may be ``rows`` when the
    shapes agree; each one not given is made here, ``out`` being ``rows``
    when they agree.
    """
    v, Z = np.asarray(v), np.asarray(Z)
    n = Z.shape[-2]
    if v.shape[-1] != 2 * n - 1:
        raise ValueError(f"vector length {v.shape[-1]} does not match factor rows {n}")
    P = fft_length(n)
    if Fv is None:
        Fv = vector_transforms(v, P)
    if rows is None:
        rows = np.empty(Z.shape[:-2] + (Z.shape[-1], P), dtype=complex)
    rows[..., :n] = Z.swapaxes(-2, -1)[..., ::-1]
    rows[..., n:] = 0.0
    np.fft.fft(rows, axis=-1, out=rows)
    shape = np.broadcast_shapes(Fv.shape[:-1] + (1, P), rows.shape)
    if out is None:
        out = rows if rows.shape == shape else np.empty(shape, dtype=complex)
    # Fv first: the operand order sets the bits.  numpy rounds a product of
    # one element differently when it is written over an operand, so that
    # one is made apart and copied
    if out.size == 1:
        out[...] = Fv[..., None, :] * rows
    else:
        np.multiply(Fv[..., None, :], rows, out=out)
    np.fft.ifft(out, axis=-1, out=out)
    return out[..., n - 1:2 * n - 1].swapaxes(-2, -1)


def _ksum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A[..., k, :] * B[..., k, :], one reduction over the K axis -2.

    numpy adds the K rows of a reduction over a non-last axis one after the
    other, so this is the running sum A[0] B[0] + A[1] B[1] + ... bit for bit.
    """
    return (A * B).sum(axis=-2)


def lift_products_from_transforms(v: np.ndarray, FZcs: tuple, u: np.ndarray,
                                  FC: np.ndarray) -> tuple:
    """(G v) Z for each Z of a tuple, and (W u) C, from transforms the
    caller already holds, K-major.

    ``FZcs`` holds the :func:`row_transforms` of conj(Z)^T for each Z, each
    (B_h, K, P), and ``FC`` that of C^T, (B_w, K, P); ``v`` is (B_h, 2n - 1)
    and ``u`` (B_w, 2n - 1).  v / omega and u / omega are divided into one
    buffer and share one batched FFT; the products are written into one
    buffer and inverted there by one batched inverse FFT.  Returns the
    ((G v) Z)^T in the order of ``FZcs``, then ((W u) C)^T, each (B, K, n).
    """
    B_h, N = v.shape
    w = weight_vector(N).omega
    vu = np.empty((B_h + len(u), N), dtype=complex)
    np.divide(v, w, out=vu[:B_h])
    np.divide(u, w, out=vu[B_h:])
    Fvu = np.fft.fft(vu, n=FC.shape[-1], axis=-1)[:, None, :]
    Fv, Fu = Fvu[:B_h], Fvu[B_h:]
    out = np.empty((len(FZcs) * B_h + len(u),) + FC.shape[1:], dtype=complex)
    hankel = out[:len(FZcs) * B_h].reshape((len(FZcs), B_h) + FC.shape[1:])
    toeplitz = out[len(FZcs) * B_h:]
    for FZc, prod in zip(FZcs, hankel):  # correlations: Fv * conj(FZc)
        np.conjugate(FZc, out=prod)
        prod *= Fv
    np.multiply(Fu, FC, out=toeplitz)
    np.fft.ifft(out, axis=-1, out=out)
    n = (N + 1) // 2
    return (*(h[..., :n] for h in hankel), toeplitz[..., n - 1:2 * n - 1])


def adjoints_from_transforms(FA: np.ndarray, FBc: np.ndarray, FC: np.ndarray,
                             n: int) -> tuple:
    """G*(A B^H) and W*(C C^H) from transforms the caller already holds.

    ``FA``, ``FBc`` and ``FC`` are the :func:`row_transforms` of A^T, conj(B)^T
    and C^T, each (B_h, K, P) resp. (B_w, K, P).  Both adjoints share one
    batched inverse FFT; returns (h, hw) of shapes (B_h, 2n - 1) and
    (B_w, 2n - 1).
    """
    out = np.concatenate([_ksum(FA, FBc), _ksum(FC, FC.conj())])
    np.fft.ifft(out, axis=-1, out=out)
    N, P = 2 * n - 1, out.shape[-1]
    w = weight_vector(N).omega
    c = out[len(FA):]
    hw = np.empty(c.shape[:-1] + (N,), dtype=complex)
    np.divide(c[..., P - (n - 1):], w[:n - 1], out=hw[..., :n - 1])
    np.divide(c[..., :n], w[n - 1:], out=hw[..., n - 1:])
    return out[:len(FA), ..., :N] / w, hw
