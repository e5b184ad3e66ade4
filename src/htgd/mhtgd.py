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
descent direction is L-BFGS (:class:`LbfgsDirection`): each solve keeps
the last ``MEMORY`` pairs (s, y) = (z_k - z_{k-1}, G_k - G_{k-1}) under
the real inner product Re<a, b> and descends along D = H G, whose first
trial step is ``UNIT_TRIAL``; its first step, and any step after a
reset, is along G itself with the descent's own first trial.  On 40
trials of the N=65, L=5, K=4, M=35 cell this took 3,455 iterations
where plain descent took 4,688, and 1.14 instead of 1.36 objective
evaluations per iteration.
Scaling G by the inverse Grams, as :mod:`htgd.chtgd` does, did not pay
here: the cross scaling took about 40% more iterations, and one shared
scaling of both blocks saved 1-10% of them for about 9% more time per
iteration.

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


MEMORY = 5        # (s, y) pairs an L-BFGS direction keeps
UNIT_TRIAL = 1.0  # first trial step of an L-BFGS line: D is scaled to the curvature
_BLOCK = 8192     # float64 columns of the pair rows read together


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


class LbfgsDirection:
    """One solve's L-BFGS direction, in compact form.

    Called once per accepted iterate, in order, in place of
    :func:`_gradient`: ``direction(t, F, obs)`` returns (G, D) with D = H G,
    H the inverse-Hessian approximation of the last ``MEMORY`` pairs
    (s, y) = (z_k - z_{k-1}, G_k - G_{k-1}), H0 = gamma I with gamma =
    Re<s, y> / ||y||^2 of the newest pair, and sets ``first`` to
    ``UNIT_TRIAL`` for the line along D.  It stays G, with ``first`` None,
    at the first iterate, when no pair is kept, and when D fails
    Re<G, D> > 0 or is not finite, which also clears the memory; a pair
    with Re<s, y> not positive and finite is skipped.

    ``size`` is the number of complex entries of the state.  The inner
    product is the real one, so the pairs are kept as float64 views of the
    complex arrays: the (2 MEMORY, 2 size) ``rows`` of one preallocated
    array of 2 MEMORY + 3 rows, s rows then y rows, filled in place in ring
    order, with their products ``rows @ rows.T`` updated a pair at a time.
    A direction then reads the rows twice, once for their products with g,
    s and y, once for D (Byrd, Nocedal & Schnabel, Math. Prog. 63, 1994,
    section 4):

        H g = gamma g + S p - gamma Y q,   q = R^{-1} S^T g,
        p = R^{-T} ((Dg + gamma Y^T Y) q - gamma Y^T g),

    R the upper triangle of S^T Y and Dg its diagonal, oldest pair first.
    """

    def __init__(self, size: int):
        # the pair rows, then g, s and y of the current iterate: D is one
        # product of a coefficient vector with the first 2 MEMORY + 1 rows.
        # Between calls the s and y rows hold z and g of the last iterate.
        self._buf = np.zeros((2 * MEMORY + 3, 2 * size))
        self._rows, self._work = self._buf[:2 * MEMORY], self._buf[2 * MEMORY:]
        self._gram = np.zeros((2 * MEMORY, 2 * MEMORY))
        self._count = 0                       # pairs kept
        self._next = 0                        # the slot the next pair goes to
        self._started = False                 # whether the s and y rows hold an iterate
        self.first = None

    def __call__(self, t: Trial, F, obs: Observed):
        grad = _gradient(t, F, obs)[0]
        return grad, self.step(t.z, grad)

    def step(self, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """D at the iterate z with gradient ``grad``, the base of the next pair."""
        zr, g = z.reshape(-1).view(np.float64), grad.reshape(-1).view(np.float64)
        work = self._work
        self.first = None
        d = None
        if self._started:
            with np.errstate(over="ignore", invalid="ignore"):  # not finite: skipped or reset
                d = self._direction(zr, g)
                descends = d is not None and 0.0 < g @ d < np.inf  # NaN or inf in d fails too
            if not descends:
                self._count, d = 0, None
        work[1], work[2] = zr, g
        self._started = True
        if d is None:
            return grad
        self.first = UNIT_TRIAL
        return d.view(np.complex128).reshape(grad.shape)

    def _direction(self, zr, g):
        """H g from the real views of z and G, after keeping the pair they
        make with the last iterate; None when no pair is kept."""
        m = MEMORY
        rows, gram, work = self._rows, self._gram, self._work
        work[0] = g
        np.subtract(zr, work[1], out=work[1])
        np.subtract(g, work[2], out=work[2])
        curvature = work[1] @ work[2]
        if 0.0 < curvature < np.inf:
            i = self._next
            rows[i], rows[m + i] = work[1], work[2]
            # rows @ work.T a cache-sized block of columns at a time: one
            # product over the whole rows took about twice as long
            prods = sum(rows[:, c:c + _BLOCK] @ work[:, c:c + _BLOCK].T
                        for c in range(0, rows.shape[1], _BLOCK))
            gram[i], gram[m + i] = prods[:, 1], prods[:, 2]
            gram[:, i], gram[:, m + i] = prods[:, 1], prods[:, 2]
            wg = prods[:, 0]
            self._next, self._count = (i + 1) % m, min(self._count + 1, m)
        elif self._count:
            wg = rows @ g
        k = self._count
        if not k:
            return None
        live = (self._next - k + np.arange(k)) % m
        live = np.concatenate([live, m + live])  # the S rows, then the Y rows, oldest first
        sub, sg, yg = gram[live[:, None], live], wg[live[:k]], wg[live[k:]]
        sy, yy = sub[:k, k:], sub[k:, k:]
        gamma = sy[-1, -1] / yy[-1, -1]
        R = np.triu(sy)
        q = np.linalg.solve(R, sg)
        coef = np.zeros(2 * m + 1)
        coef[live[:k]] = np.linalg.solve(R.T, np.diag(sy) * q + gamma * (yy @ q - yg))
        coef[live[k:]] = -gamma * q
        coef[2 * m] = gamma
        return coef @ self._buf[:2 * m + 1]


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
    direction = LbfgsDirection(2 * init.z1.size)

    def grad_and_signal(state):
        line, x = gradient_line(state, obs, _transforms, _kernel_args, direction)
        return line._replace(first=direction.first), x

    out = run_descent(start_point(init.stacked(), obs, _transforms, _kernel_args),
                      lambda state: _objective_stacked(state, obs), grad_and_signal, cfg)
    return solver_report(out, obs.e, observations.dims, ground_truth)
