"""Frequency retrieval from recovered signals, matching, and error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import operators as ops
from .errors import NumericalError, RankDeficientError
from .lowrank import randomized_lift_svd

_RANK_RTOL = 1e-12
_EXHAUSTIVE_LIMIT = 8


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
    (n x nL) come from the seeded randomized range finder of
    ``lowrank.randomized_lift_svd``: r = K + 8 probe columns (at most n)
    and two power iterations, every product with E or E^H taken through
    ``operators.fast_lift_mul`` via H x_l = G(omega * x_l).  The shift
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
    if not 1 <= K < n:
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
    index assigned to ``estimate[i]``.  Exhaustive search up to K = 8;
    larger sets use the best cyclic alignment of the two sorted lists,
    which is optimal for order-preserving matchings on the circle.
    """
    est = np.atleast_1d(np.asarray(estimate, dtype=float))
    ref = np.atleast_1d(np.asarray(reference, dtype=float))
    K = est.size
    if ref.size != K or K == 0:
        raise ValueError(f"need equally sized nonempty lists, got {est.size} and {ref.size}")
    if K <= _EXHAUSTIVE_LIMIT:
        best = None
        for perm in permutations(range(K)):
            err = float(np.max(wrap_distance(est, ref[list(perm)])))
            if best is None or err < best[1]:
                best = (perm, err)
        return best
    order_e = np.argsort(est)
    order_r = np.argsort(ref)
    best = None
    for shift in range(K):
        rolled = order_r[(np.arange(K) + shift) % K]
        err = float(np.max(wrap_distance(est[order_e], ref[rolled])))
        if best is None or err < best[1]:
            pairing = np.empty(K, dtype=int)
            pairing[order_e] = rolled
            best = (tuple(pairing.tolist()), err)
    return best


def nmse(x_hat, x_ref) -> float:
    """Relative squared reconstruction error ||x_hat - x_ref||^2 / ||x_ref||^2."""
    a = _signal_array(x_hat)
    b = _signal_array(x_ref)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = np.linalg.norm(b) ** 2
    if denom == 0.0:
        raise ValueError("reference signal is identically zero")
    return float(np.linalg.norm(a - b) ** 2 / denom)
