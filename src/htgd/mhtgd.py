"""Two-factor gradient solver for the general multichannel model.

Per channel l the weighted Hankel lift of the signal is modelled as
Z2^l Z1^{l,H} with factors in C^{n x K}.  Writing y_l for the weighted
observed signal (omega * x_l, supported on the mask) and p = M/N, the
objective sums over channels

    (1/2p) || P_mask(G*(Z2 Z1^H) - y_l) ||^2            data fit
  + 1/2 || (I - G G*) (Z2 Z1^H) ||_F^2                  Hankel structure
  + 1/4 || (I - W W*) (Z1 Z1^H) ||_F^2                  Toeplitz structure
  + 1/4 || sum_q conj(Z1^q) Z1^{q,T} - L Z2 Z2^H ||_F^2 channel coupling

Everything is evaluated in factored form: the structure terms through
the projector identity ||(I - P) M||_F^2 = ||M||_F^2 - ||lift* M||^2,
the coupling term through K x K Gram matrices, and every FFT through
the ``operators`` kernels.  The objective and ``_gradient`` read the
lifts a ``descent.Trial`` carries and make none; ``descent.start_point``
and ``descent.gradient_line`` build the Trials from ``_transforms``,
``_kernel_args`` and ``_gradient``.  A gradient costs O(L K N log N +
L^2 K^2 N), an objective at a line-search trial O(L N + L^2 K^2 N) (see
:mod:`htgd.descent`); no n x n matrix is ever formed.

Gradients are conjugate Wirtinger derivatives of the objective, so the
directional derivative along a perturbation D is 2 Re<grad, D>.  The
descent direction is the analytic gradient of the model itself; its
overall scale is immaterial to the Armijo-controlled iteration.  Scaling
it by the inverse Grams, as :mod:`htgd.chtgd` does, did not pay here:
the cross scaling took about 40% more iterations, and one shared scaling
of both blocks saved 1-10% of them for about 9% more time per iteration.

State layout: a Trial's z, one complex array of shape (L, 2n, K),
channel l holding Z1^l in rows 0..n-1 and Z2^l in rows n..2n-1.
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
from .lowrank import randomized_lift_svd
from .signals import MultichannelSignal, ProblemDims, SamplingMask


@dataclass(frozen=True)
class FactorSetM:
    """Per-channel factor pairs; z1 and z2 have shape (L, n, K)."""

    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        z1 = np.asarray(self.z1, dtype=complex)
        z2 = np.asarray(self.z2, dtype=complex)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        if z1.ndim != 3 or z1.shape != z2.shape:
            raise ValueError(f"factor shapes {z1.shape} and {z2.shape} must match (L, n, K)")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.z1, self.z2], axis=1)

    @staticmethod
    def from_stacked(state: np.ndarray) -> "FactorSetM":
        n = state.shape[1] // 2
        return FactorSetM(z1=state[:, :n, :], z2=state[:, n:, :])


def _transforms(state):
    """[conj z1, z2, z1] transformed along the rows, (3L, P, K), in one batched FFT.

    Real-linear in the state, so the transforms of state - eta * G are
    those of the state minus eta times those of G.
    """
    n = state.shape[1] // 2
    z1 = state[:, :n, :]
    return ops.row_transforms(np.concatenate([z1.conj(), state[:, n:, :], z1], axis=0))


def _kernel_args(F):
    """(F2, F1c, F1): the (A, conj B, C) arguments of the operators kernels."""
    L = F.shape[0] // 3
    return F[L:2 * L], F[:L], F[2 * L:]


def _grams(z1, z2):
    """The coupling term's Gram blocks of the (L, n, K) factors.

    Z1f, Z2f: the factors side by side, (n, L K); G1full = Z1f^H Z1f,
    g11 its (L, K, K) diagonal blocks z1^{l,H} z1^l, g22 = z2^{l,H} z2^l.
    """
    L, n, K = z1.shape
    Z1f = z1.transpose(1, 0, 2).reshape(n, L * K)
    Z2f = z2.transpose(1, 0, 2).reshape(n, L * K)
    G1full = Z1f.conj().T @ Z1f
    diag = np.arange(L)
    g11 = G1full.reshape(L, K, L, K)[diag, :, diag, :]
    g22 = np.swapaxes(z2, -2, -1).conj() @ z2
    return Z1f, Z2f, G1full, g11, g22


def _objective_stacked(t: Trial, obs: Observed):
    state, h, hw = t.z, t.h, t.hw
    L, two_n, K = state.shape
    n = two_n // 2
    z1 = state[:, :n, :]
    z2 = state[:, n:, :]
    resid = np.where(obs.maskb, h - obs.yT, 0.0)
    t1 = np.sum(np.abs(resid) ** 2) / (2.0 * obs.p)
    Z1f, Z2f, G1full, g11, g22 = _grams(z1, z2)
    lr_h = np.sum(g22 * np.swapaxes(g11, -2, -1), axis=(-2, -1)).real
    t2 = 0.5 * np.sum(np.maximum(lr_h - np.sum(np.abs(h) ** 2, axis=-1), 0.0))
    lr_w = np.sum(np.abs(g11) ** 2, axis=(-2, -1))
    t3 = 0.25 * np.sum(np.maximum(lr_w - np.sum(np.abs(hw) ** 2, axis=-1), 0.0))
    c2 = np.sum(np.abs(G1full) ** 2)
    M12 = Z1f.T @ Z2f
    cross = np.sum(np.abs(M12) ** 2, axis=0).reshape(L, K).sum(axis=-1)
    b2 = np.sum(np.abs(g22) ** 2, axis=(1, 2))
    t4 = 0.25 * np.sum(np.maximum(c2 - 2.0 * L * cross + L * L * b2, 0.0))
    return float(t1 + t2 + t3 + t4)


def _gradient(t: Trial, F, obs: Observed):
    """(G, G): the gradient at the Trial ``t``, from its transforms ``F`` and
    its lifts, and the direction, G itself."""
    state, h, hw = t.z, t.h, t.hw
    L, two_n, K = state.shape
    n = two_n // 2
    z1 = state[:, :n, :]
    z2 = state[:, n:, :]
    F2, F1c, F1 = _kernel_args(F)
    v = np.where(obs.maskb, h - obs.yT, 0.0) / obs.p - h
    gv_z1, gv_z2c, ww_z1 = ops.lift_products_from_transforms(v, (F1c, F2), hw, F1)
    Z1f, Z2f, G1full, g11, g22 = _grams(z1, z2)
    sum1 = (Z1f @ G1full).reshape(n, L, K).transpose(1, 0, 2)
    T12 = Z2f.T @ Z1f
    sum2 = (Z2f.conj() @ T12).reshape(n, L, K).transpose(1, 0, 2)
    sum3 = (Z1f.conj() @ T12.T).reshape(n, L, K).transpose(1, 0, 2)
    gz1 = 0.5 * (np.conj(gv_z2c) - ww_z1 + z1 @ (g11 + g22) + L * (sum1 - sum2))
    gz2 = 0.5 * (gv_z1 + z2 @ (g11 + L * L * g22) - L * sum3)
    grad = np.concatenate([gz1, gz2], axis=1)
    return grad, grad


def objective_f(factors: FactorSetM, y: np.ndarray, mask: SamplingMask,
                dims: ProblemDims) -> float:
    """Objective value; ``y`` is the weighted signal, (full_N, L)."""
    obs = prepare_observed(y, mask, dims)
    return _objective_stacked(start_point(factors.stacked(), obs, _transforms, _kernel_args), obs)


def grad_f(factors: FactorSetM, y: np.ndarray, mask: SamplingMask,
           dims: ProblemDims) -> FactorSetM:
    """Conjugate Wirtinger gradient of :func:`objective_f` at ``factors``."""
    obs = prepare_observed(y, mask, dims)
    t = start_point(factors.stacked(), obs, _transforms, _kernel_args)
    return FactorSetM.from_stacked(_gradient(t, t.F, obs)[0])


def spectral_init(y: np.ndarray, mask: SamplingMask, dims: ProblemDims,
                  seed: int = 0) -> FactorSetM:
    """Per-channel rank-K truncated SVD of the rescaled lifted observations.

    Channel l factorises T_K(p^{-1} G(P_mask y_l)) = U S V^H into
    z2 = U S^(1/2), z1 = V S^(1/2).  The L channels go through
    ``lowrank.randomized_lift_svd`` as one (L, 1, N) batch, channel l
    drawing its probe from the seed (seed, l).
    """
    yT = prepare_observed(y, mask, dims).yT
    U, s, V = randomized_lift_svd(yT[:, None, :] / dims.p, dims.K, seed)
    root = np.sqrt(s)[:, None, :]
    return FactorSetM(z1=V * root, z2=U * root)


def solve_mhtgd(observations: MultichannelSignal, mask: SamplingMask,
                config: SolverConfig | None = None,
                ground_truth: MultichannelSignal | None = None) -> SolverReport:
    """Recover the full signal from masked observations.

    ``observations.data`` only needs valid entries on the mask; everything
    else is ignored.  When ``ground_truth`` is given the report carries the
    reconstruction NMSE.
    """
    cfg = config if config is not None else SolverConfig()
    obs = weigh_observations(observations, mask)
    init = spectral_init(obs.yT.T, mask, observations.dims, seed=cfg.seed)
    out = run_descent(start_point(init.stacked(), obs, _transforms, _kernel_args),
                      lambda state: _objective_stacked(state, obs),
                      lambda state: gradient_line(state, obs, _transforms, _kernel_args,
                                                  _gradient),
                      cfg)
    return solver_report(out, obs.e, observations.dims, ground_truth)
