"""Frequency retrieval from recovered signals, matching, and error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NumericalError, RankDeficientError
from .lowrank import randomized_lift_svd
from .signals import check_int

_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class FrequencyEstimate:
    """Recovered frequencies, sorted ascending in [0, 1)."""

    freqs: np.ndarray


def _signal_array(x) -> np.ndarray:
    data = np.asarray(getattr(x, "data", x), dtype=complex)
    if data.ndim == 1:
        data = data[:, None]
    return data


def esprit(x, K: int) -> FrequencyEstimate:
    """Rotational-invariance frequency estimates from the stacked channel lifts.

    The K dominant left singular vectors U_s of E = [H x_1, ..., H x_L]
    (n x nL) come from one joint-mode call of the seeded randomized range
    finder ``lowrank.randomized_lift_svd`` on the (L, N) channel stack:
    r = K + 8 probe columns (at most n) and two power iterations, every
    product with E or E^H taken through ``operators.fast_lift_mul`` via
    H x_l = G(omega * x_l).  The shift
    equation U_s[:-1] Psi = U_s[1:] is solved in the least-squares sense
    and frequencies are read off the eigenvalue phases of Psi.

    Cost is O(L r N log N) plus QR of n x r and nL x r blocks, the SVD of
    the r x nL matrix Q^H E and a K x K eigenproblem; no n x n or n x nL
    matrix is formed.  The probe comes from a fixed seed, so a given
    input always gives the same estimates.  Even-length input drops its
    last sample.  Estimates are invariant to a global complex scaling of
    ``x``.  Raises ``NumericalError`` on non-finite input and
    ``RankDeficientError`` when sigma_K / sigma_1 of E falls below
    ``_RANK_RTOL``.
    """
    data = _signal_array(x)
    if data.shape[0] % 2 == 0:
        data = data[:-1]  # odd prefix carries the same sinusoids
    N = data.shape[0]
    n = (N + 1) // 2
    K = check_int("K", K, 1)
    if not K < n:
        raise ValueError(f"need 1 <= K < n={n}, got K={K}")
    if not np.all(np.isfinite(data)):
        raise NumericalError("signal contains NaN or inf; cannot estimate frequencies")
    v = data.T * ops.weight_vector(N).omega  # G(omega x_l) = H x_l
    Us, s, _ = randomized_lift_svd(v, K, seed=0)
    if s[0] == 0.0 or s[K - 1] / s[0] < _RANK_RTOL:
        raise RankDeficientError(
            f"lifted signal has numerical rank below K={K} (sigma ratio {0.0 if s[0] == 0 else s[K - 1] / s[0]:.2e})"
        )
    Psi, *_ = np.linalg.lstsq(Us[:-1], Us[1:], rcond=None)
    lam = np.linalg.eigvals(Psi)
    freqs = np.sort(np.mod(-np.angle(lam) / (2.0 * np.pi), 1.0))
    return FrequencyEstimate(freqs=freqs)


def wrap_distance(a: float, b: float) -> float:
    """Distance on the unit circle: min(|a-b| mod 1, 1 - |a-b| mod 1)."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def match_frequencies(estimate: np.ndarray, reference: np.ndarray) -> tuple:
    """Pair estimates with references minimising the worst wrap-around error.

    Returns ``(pairing, max_err)`` where ``pairing[i]`` is the reference
    index assigned to ``estimate[i]``.  The pairing is the best of the K
    cyclic alignments of the two sorted lists, read off a K x K table of
    wrap distances in O(K^2).  That is optimal among all K! matchings:
    swapping the partners of two crossing pairs never raises the larger
    of their two wrap distances, so some non-crossing matching, that is
    some cyclic alignment, reaches the minimum.  Where several alignments
    reach it, the first, smallest shift is taken.  Raises ``ValueError``
    unless both lists hold the same number K >= 1 of values.
    """
    est = np.atleast_1d(np.asarray(estimate, dtype=float))
    ref = np.atleast_1d(np.asarray(reference, dtype=float))
    K = est.size
    if ref.size != K or K == 0:
        raise ValueError(f"need equally sized nonempty lists, got {est.size} and {ref.size}")
    order_e = np.argsort(est)
    # rolled[s] is the sorted reference order rotated by s
    rolled = np.argsort(ref)[(np.arange(K)[:, None] + np.arange(K)) % K]
    errs = np.max(wrap_distance(est[order_e], ref[rolled]), axis=1)
    shift = int(np.argmin(errs))
    pairing = np.empty(K, dtype=int)
    pairing[order_e] = rolled[shift]
    return tuple(pairing.tolist()), float(errs[shift])


def nmse(x_hat, x_ref) -> float:
    """Relative squared reconstruction error ||x_hat - x_ref||^2 / ||x_ref||^2."""
    a = _signal_array(x_hat)
    b = _signal_array(x_ref)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    top = ops.top_exponent(b)
    a, b = ops.ldexp(a, -top), ops.ldexp(b, -top)  # exact, and the norms stay in range
    denom = np.linalg.norm(b) ** 2
    if denom == 0.0:
        raise ValueError("reference signal is identically zero")
    return float(np.linalg.norm(a - b) ** 2 / denom)
