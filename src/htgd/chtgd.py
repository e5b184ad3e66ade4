"""Single-factor gradient solver for constant-amplitude channels.

When every channel shares the amplitudes b_k, the weighted Hankel lift
of channel l admits a complex symmetric factorisation Z^l Z^{l,T} whose
Gram matrix Z^l Z^{l,H} is one common Toeplitz matrix for all channels.
The objective couples channels through that shared Gram instead of a
second factor:

    sum_l [ (1/4p) || P_mask(G*(Z^l Z^{l,T}) - y_l) ||^2
            + 1/4 || (I - G G*)(Z^l Z^{l,T}) ||_F^2 ]
    + 1/4 || (I - W W*)(Z^1 Z^{1,H}) ||_F^2
    + 1/4 sum_{l >= 2} || Z^1 Z^{1,H} - Z^l Z^{l,H} ||_F^2

with channel 1 anchoring the Toeplitz structure penalty.  The objective
and gradient read the lifts of a ``descent.Trial`` (``descent.start_point``,
``descent.gradient_line``) and make none, and the gradient reads the
Grams and masked residual that the objective left in the Trial's
``carry``; FFTs run through the same ``operators`` kernels as the
two-factor solver.  The gradient G is again the conjugate Wirtinger
derivative, so directional derivatives equal 2 Re<G, D>.

The descent runs along the Gram-scaled direction

    D_l = G_l P_l^{-1},   P_l = conj(Z^{l,H} Z^l) + DAMPING tr(Z^{l,H} Z^l) / K I,

the scaled gradient descent of Tong, Ma & Chi, "Accelerating
ill-conditioned low-rank matrix estimation via scaled gradient descent"
(JMLR 2021).  P_l is Hermitian positive definite, so the slope Re<G, D>
that the Armijo search reads is positive wherever G is not zero, and the
step no longer slows with the conditioning of the K x K Gram: about 30%
fewer iterations than along G on the benchmark's constant-amplitude shape.
The K x K Grams are the gradient's own, so the scaling costs O(L n K^2 +
L K^3) and no FFT.  A channel whose factor is zero has P_l = I.  The
damping bounds the gain on a Gram's small eigenvalues: when K exceeds the
signal's order those eigenvalues go to zero, and at 1e-8 the amplified
steps stalled into false convergence (NMSE 1e-5 to 3e-3) on 22 of 48 such
solves at N = 33 and 65, against none at 1e-3.

State layout: a Trial's z, one complex array of shape (L, K, n), K-major:
channel l holds Z^{l,T}, so each factor column is a contiguous row.  The
row FFTs run along the contiguous last axis, the K-sums of the kernels are
reductions over axis -2, and the channels l >= 2 read as ((L - 1) K, n)
are a view.  ``FactorSetC.stacked`` and ``from_stacked`` convert at the
solver boundary; the public (L, n, K) factors keep their layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .descent import (
    Observed,
    SolverConfig,
    SolverReport,
    Trial,
    gradient_line,
    prepare_observed,
    run_descent,
    solver_report,
    start_point,
    weigh_observations,
)
from .lowrank import randomized_lift_svd, takagi_factors
from .signals import MultichannelSignal, ProblemDims, SamplingMask

__all__ = [
    "FactorSetC",
    "spectral_init_ca",
    "objective_g",
    "grad_g",
    "solve_chtgd",
]


@dataclass(frozen=True)
class FactorSetC:
    """Per-channel symmetric factors, shape (L, n, K)."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        object.__setattr__(self, "z", z)
        if z.ndim != 3:
            raise ValueError(f"factors must have shape (L, n, K), got {z.shape}")

    def stacked(self) -> np.ndarray:
        """The solver's state: the K-major factors z_l^T, (L, K, n)."""
        return np.ascontiguousarray(self.z.swapaxes(-2, -1))

    @staticmethod
    def from_stacked(state: np.ndarray) -> "FactorSetC":
        return FactorSetC(z=state.swapaxes(-2, -1))


DAMPING = 1e-3  # of the Gram scaling, relative to the mean eigenvalue tr/K


def _transforms(z):
    """The row transforms of every channel's factor, (L, K, P)."""
    return ops.row_transforms(z)


def _kernel_args(FZ):
    """(A, conj B, C) of the operators kernels: A = conj B = z_l gives
    z_l z_l^T per channel, C = z_1 gives z_1 z_1^H."""
    return FZ, FZ, FZ[:1]


def _point_algebra(t: Trial, obs: Observed):
    """(resid, gram, anchor) at the Trial ``t``: the masked residual
    where(mask, h - yT, 0), the Grams z_l^H z_l, and the anchor products
    z_1^H z_l of the channels l >= 2 side by side, (K, (L - 1) K), which
    the objective and the gradient both read."""
    z = t.z
    return (np.where(obs.maskb, t.h - obs.yT, 0.0), z.conj() @ z.swapaxes(-2, -1),
            z[0].conj() @ z[1:].reshape(-1, z.shape[-1]).T)


def _objective_stacked(t: Trial, obs: Observed):
    """The objective at the Trial ``t``; its point algebra goes to ``t.carry``,
    where the gradient finds it if ``t`` is the accepted trial."""
    h, hw = t.h, t.hw
    L, K, _ = t.z.shape
    t.carry["algebra"] = resid, gram, anchor = _point_algebra(t, obs)
    t1 = (np.abs(resid) ** 2).sum() / (4.0 * obs.p)
    lr_h = (gram * gram).real.sum(axis=(-2, -1))
    t2 = 0.25 * np.maximum(lr_h - (np.abs(h) ** 2).sum(axis=-1), 0.0).sum()
    lr_w = float((np.abs(gram[0]) ** 2).sum())
    t3 = 0.25 * max(lr_w - float((np.abs(hw) ** 2).sum()), 0.0)
    # the coupling penalty; with L = 1 its channel slices are empty and it is 0
    norms = (np.abs(gram) ** 2).sum(axis=(1, 2))
    cross_norms = (np.abs(anchor) ** 2).reshape(K, L - 1, K).sum(axis=(0, 2))
    t4 = 0.25 * np.maximum(norms[0] + norms[1:] - 2.0 * cross_norms, 0.0).sum()
    return float(t1 + t2 + t3 + t4)


def _gradient(t: Trial, obs: Observed):
    """(G, D, None): the gradient at the Trial ``t``, from its transforms
    ``t.F``, its lifts and the point algebra its objective carried (made here
    when it carries none), the Gram-scaled direction D_l = G_l P_l^{-1}
    (module docstring), and no first trial of its own.  G and D are K-major
    like the state: each term below is the transpose of its column form,
    (z S)^T = S^T z^T."""
    z, h, hw = t.z, t.h, t.hw
    L, K, n = z.shape
    resid, gram, anchor = t.carry.pop("algebra", None) or _point_algebra(t, obs)
    v = resid / obs.p - h
    # (G(v_l) conj(z_l))^T from the transforms of z_l, and (W(hw) z_1)^T
    gv_zc, ww_z1 = ops.lift_products_from_transforms(v, (t.F,), hw, t.F[:1])
    grad = np.empty_like(z)
    np.subtract(gv_zc[0], ww_z1[0], out=grad[0])
    grad[0] += (gram[0].conj() + L * gram[0]).T @ z[0]
    # the coupling terms; with L = 1 the non-anchor slices are empty and add nothing.
    # sum_q z^q (z^{q,H} z^1) over the non-anchor channels: anchor = [z^{1,H} z^q]_q
    grad[0] -= anchor.conj() @ z[1:].reshape(-1, n)
    grad[1:] = (gv_zc[1:]
                + (gram[1:].conj() + gram[1:]).swapaxes(-2, -1) @ z[1:]
                - anchor.reshape(K, L - 1, K).transpose(1, 2, 0) @ z[0])
    grad *= 0.5
    # P_l = conj(z_l^H z_l) + DAMPING tr/K I; a zero factor has a zero Gram and takes P_l = I
    reg = DAMPING / K * gram.trace(axis1=-2, axis2=-1).real
    reg[reg <= 0.0] = 1.0
    P = gram.conj() + reg[:, None, None] * np.eye(K)
    return grad, np.linalg.inv(P).swapaxes(-2, -1) @ grad, None


def objective_g(factors: FactorSetC, y: np.ndarray, mask: SamplingMask,
                dims: ProblemDims) -> float:
    """Objective value; ``y`` is the weighted signal, (full_N, L)."""
    obs = prepare_observed(y, mask, dims)
    return _objective_stacked(start_point(factors.stacked(), obs, _transforms, _kernel_args), obs)


def grad_g(factors: FactorSetC, y: np.ndarray, mask: SamplingMask,
           dims: ProblemDims) -> FactorSetC:
    """Conjugate Wirtinger gradient of :func:`objective_g` at ``factors``."""
    obs = prepare_observed(y, mask, dims)
    t = start_point(factors.stacked(), obs, _transforms, _kernel_args)
    return FactorSetC.from_stacked(_gradient(t, obs)[0])


def spectral_init_ca(y: np.ndarray, mask: SamplingMask, dims: ProblemDims,
                     seed: int = 0) -> FactorSetC:
    """Rank-K truncated Takagi factors of p^{-1} G(P_mask y_l) per channel.

    The L channels go through ``lowrank.randomized_lift_svd`` as one
    (L, 1, N) batch, channel l drawing its probe from the seed (seed, l);
    ``lowrank.takagi_factors`` turns each channel's SVD U diag(s) V^H into
    z_l with z_l z_l^T = U S U^T, the lift projected onto the SVD's range
    from both sides.
    """
    yT = prepare_observed(y, mask, dims).yT
    U, s, V = randomized_lift_svd(yT[:, None, :] / dims.p, dims.K, seed)
    return FactorSetC(z=takagi_factors(U, s, V))


def solve_chtgd(observations: MultichannelSignal, mask: SamplingMask,
                config: SolverConfig | None = None,
                ground_truth: MultichannelSignal | None = None) -> SolverReport:
    """Recover a constant-amplitude signal from masked observations.

    Accepts any observations; convergence is only expected when the
    underlying channels genuinely share amplitudes.
    """
    cfg = config if config is not None else SolverConfig()
    obs = weigh_observations(observations, mask)
    # run_descent's Trial alone holds the start state, so neither the init's
    # factors nor their K-major copy outlive the first step
    out = run_descent(start_point(spectral_init_ca(obs.yT.T, mask, observations.dims,
                                                   seed=cfg.seed).stacked(),
                                  obs, _transforms, _kernel_args),
                      lambda state: _objective_stacked(state, obs),
                      lambda state: gradient_line(state, obs, _transforms, _kernel_args,
                                                  _gradient),
                      cfg)
    return solver_report(out, obs.e, observations.dims, ground_truth)
