"""Multichannel sinusoid models, synthesis, and partial observation.

A model with K frequencies f_k in [0, 1) and L channels produces

    x[j, l] = sum_k b[k, l] * exp(i * (-2*pi*f_k*(j - 1) + phi[k, l]))

for j = 1..N.  All channels share the frequencies; constant-amplitude
(CA) models additionally share b[k, l] = b[k] across channels.

Solvers require an odd length N = 2n - 1.  A request for even N is
served by an internal model of length N + 1 whose final sample is never
observed: masks are always drawn from {1..N}, and every reported array
keeps the user's N rows.

Randomness contract: every stochastic operation takes an explicit seed
and runs on a counter-based Philox generator, so identical seeds
reproduce results bit for bit.  Draw order inside ``random_model`` is
frequencies (including all rejected attempts), then amplitudes, then
phases.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError

_REJECTION_BUDGET = 10_000


def make_rng(seed) -> np.random.Generator:
    """Philox generator for an integer seed or a SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def check_int(name: str, value, low: int) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an
    integer (a bool or 2.5 is not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProblemDims:
    """Problem sizes: N samples per channel, L channels, K sinusoids, M observed."""

    N: int
    L: int
    K: int
    M: int

    def __post_init__(self):
        for name in ("N", "L", "K", "M"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if self.M > self.N:
            raise ValueError(f"M must lie in [1, N={self.N}], got {self.M}")
        if self.K >= self.n:
            raise ValueError(
                f"K={self.K} too large for N={self.N}: need K < n={self.n}"
            )

    @property
    def full_N(self) -> int:
        """Internal odd length: N itself, or N + 1 for even requests."""
        return self.N if self.N % 2 == 1 else self.N + 1

    @property
    def n(self) -> int:
        """Lifted matrix size, full_N = 2n - 1."""
        return (self.full_N + 1) // 2

    @property
    def p(self) -> float:
        """Sampling ratio used in the data-fit weighting."""
        return self.M / self.full_N


@dataclass(frozen=True)
class SpectralModel:
    """Ground-truth parameters: freqs (K,), amps (K, L), phases (K, L)."""

    freqs: np.ndarray
    amps: np.ndarray
    phases: np.ndarray
    is_ca: bool = False

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.freqs, dtype=float))
        amps = np.atleast_2d(np.asarray(self.amps, dtype=float))
        phases = np.atleast_2d(np.asarray(self.phases, dtype=float))
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "phases", phases)
        K = freqs.shape[0]
        if amps.shape[0] != K or phases.shape != amps.shape:
            raise ValueError(
                f"shape mismatch: freqs {freqs.shape}, amps {amps.shape}, phases {phases.shape}"
            )
        if np.any(freqs < 0) or np.any(freqs >= 1):
            raise ValueError("frequencies must lie in [0, 1)")
        if len(np.unique(freqs)) != K:
            raise ValueError("frequencies must be distinct")
        if np.any(amps <= 0):
            raise ValueError("amplitudes must be positive")
        if self.is_ca and not np.all(amps == amps[:, :1]):
            raise ValueError("constant-amplitude model requires equal amps across channels")

    @property
    def K(self) -> int:
        return self.freqs.shape[0]

    @property
    def L(self) -> int:
        return self.amps.shape[1]

    def coefficients(self) -> np.ndarray:
        """Complex coefficient matrix S with S[k, l] = b[k, l] exp(i phi[k, l])."""
        return self.amps * np.exp(1j * self.phases)


@dataclass(frozen=True)
class MultichannelSignal:
    """Complex samples, shape (N, L), together with the problem dimensions."""

    data: np.ndarray
    dims: ProblemDims

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        if data.shape != (self.dims.N, self.dims.L):
            raise ValueError(
                f"data shape {data.shape} does not match dims ({self.dims.N}, {self.dims.L})"
            )


@dataclass(frozen=True)
class SamplingMask:
    """Sorted 1-based sample indices, a subset of {1..N}."""

    indices: np.ndarray
    N: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx = np.sort(idx)
        object.__setattr__(self, "indices", idx)
        if idx.size == 0:
            raise ValueError("mask must contain at least one index")
        if idx[0] < 1 or idx[-1] > self.N:
            raise ValueError(f"mask indices must lie in [1, {self.N}]")
        if len(np.unique(idx)) != idx.size:
            raise ValueError("mask indices must be distinct")

    @property
    def M(self) -> int:
        return self.indices.size

    def bool_array(self, length: int | None = None) -> np.ndarray:
        """Boolean indicator of length ``length`` (defaults to N); True on observed rows."""
        length = self.N if length is None else int(length)
        if length < self.N:
            raise ValueError("indicator length shorter than mask range")
        out = np.zeros(length, dtype=bool)
        out[self.indices - 1] = True
        return out


def synthesize(model: SpectralModel, dims: ProblemDims) -> MultichannelSignal:
    """Evaluate the model on sample indices 1..N for every channel."""
    if model.L != dims.L:
        raise ValueError(f"model has L={model.L} channels, dims expects {dims.L}")
    if model.K != dims.K:
        raise ValueError(f"model has K={model.K} sinusoids, dims expects {dims.K}")
    j = np.arange(dims.N)
    steering = np.exp(-2j * np.pi * np.outer(j, model.freqs))
    data = steering @ model.coefficients()
    return MultichannelSignal(data=data, dims=dims)


def _min_circular_gap(freqs: np.ndarray) -> float:
    if freqs.size < 2:
        return np.inf
    gaps = np.diff(freqs)
    wrap = 1.0 - (freqs[-1] - freqs[0])
    return float(min(gaps.min(), wrap))


def random_model(dims: ProblemDims, min_sep: float = 0.0, is_ca: bool = False,
                 seed=0) -> SpectralModel:
    """Draw a model with uniform frequencies kept only when all pairwise
    wrap-around distances reach ``min_sep``; amplitudes are uniform on
    [0.5, 1.5] and phases uniform on [0, 2*pi).

    Raises ``ValueError`` if K >= 2 and K * min_sep >= 1 (at equality only a
    measure-zero set of draws is admissible) and ``GenerationError`` if
    rejection sampling exhausts its budget.  A single frequency has no
    pairs, so any nonnegative ``min_sep`` admits it.
    """
    if not min_sep >= 0:  # NaN too
        raise ValueError(f"min_sep must be nonnegative, got {min_sep}")
    if dims.K >= 2 and dims.K * min_sep >= 1.0:
        raise ValueError(
            f"cannot place K={dims.K} frequencies with pairwise separation {min_sep} on the unit circle"
        )
    rng = make_rng(seed)
    freqs = None
    for _ in range(_REJECTION_BUDGET):
        cand = np.sort(rng.uniform(0.0, 1.0, dims.K))
        if _min_circular_gap(cand) >= min_sep:
            freqs = cand
            break
    if freqs is None:
        raise GenerationError(
            f"no admissible frequency set after {_REJECTION_BUDGET} attempts (K={dims.K}, min_sep={min_sep})"
        )
    if is_ca:
        amps = np.repeat(rng.uniform(0.5, 1.5, (dims.K, 1)), dims.L, axis=1)
    else:
        amps = rng.uniform(0.5, 1.5, (dims.K, dims.L))
    phases = rng.uniform(0.0, 2.0 * np.pi, (dims.K, dims.L))
    return SpectralModel(freqs=freqs, amps=amps, phases=phases, is_ca=is_ca)


def sample_mask(dims: ProblemDims, seed=0) -> SamplingMask:
    """M indices drawn uniformly without replacement from {1..N}."""
    rng = make_rng(seed)
    idx = rng.choice(dims.N, size=dims.M, replace=False)
    return SamplingMask(indices=np.sort(idx) + 1, N=dims.N)


def apply_mask(signal: MultichannelSignal, mask: SamplingMask) -> MultichannelSignal:
    """Zero every unobserved row; a length-preserving orthogonal projection."""
    if mask.N != signal.dims.N:
        raise ValueError(f"mask is for N={mask.N}, signal has N={signal.dims.N}")
    keep = mask.bool_array()
    data = np.where(keep[:, None], signal.data, 0.0)
    return MultichannelSignal(data=data, dims=signal.dims)
