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
lifts a ``descent.Trial`` carries and make none, and the gradient reads
the Grams and masked residual that the objective left in the Trial's
``carry``; ``descent.start_point``
and ``descent.gradient_line`` build the Trials from ``_kernel_args`` and
``_gradient``.  A gradient, and a line-search trial
with its lifts and objective, each cost O(L K N log N + L^2 K^2 N) (see
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

State layout: a Trial's z, one complex array of shape (2, L, K, n), K-major:
block 0 holds Z1^{l,T} and block 1 Z2^{l,T} for each channel l, so each
factor column is a contiguous row.  The row FFTs then run along the
contiguous last axis, the K-sums of the kernels are reductions over axis
-2, and each block read as (L K, n) is a view, so the Grams are products
of views.  ``FactorSetM.stacked`` and ``from_stacked`` convert at the
solver boundary; the public (L, n, K) factors keep their layout.  A
Trial's F is the (2, L, K, P) row transforms of the state, one batched FFT
of its 2L blocks; the lifts and the gradient read those of conj z1 too,
which ``_kernel_args`` derives from the z1 block by frequency reversal
with no FFT, so neither a point nor a line carries them.
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
        """The solver's state: the K-major blocks z1^T and z2^T, (2, L, K, n)."""
        return np.ascontiguousarray(np.stack([self.z1, self.z2]).swapaxes(-2, -1))

    @staticmethod
    def from_stacked(state: np.ndarray) -> "FactorSetM":
        return FactorSetM(z1=state[0].swapaxes(-2, -1), z2=state[1].swapaxes(-2, -1))


def _kernel_args(F):
    """(F2, F1c, F1): the (A, conj B, C) arguments of the operators kernels,
    from the row transforms F of the state; F1c, those of conj z1, is
    derived from F1 by frequency reversal (``operators.conj_transforms``)."""
    return F[1], ops.conj_transforms(F[0]), F[0]


def _grams(z1, z2):
    """The coupling term's Gram blocks of the K-major (L, K, n) blocks.

    X1, X2: each block's rows stacked, (L K, n), a view of a contiguous
    state; X1 = Z1f^T for the factors side by side, Z1f (n, L K).  X1c is
    conj(X1), G1full = Z1f^H Z1f = X1c X1^T, g11 its (L, K, K) diagonal
    blocks z1^{l,H} z1^l, and g22 = z2^{l,H} z2^l.
    """
    L, K, n = z1.shape
    X1 = z1.reshape(L * K, n)
    X2 = z2.reshape(L * K, n)
    X1c = X1.conj()
    G1full = X1c @ X1.T
    diag = np.arange(L)
    g11 = G1full.reshape(L, K, L, K)[diag, :, diag, :]
    g22 = z2.conj() @ z2.swapaxes(-2, -1)
    return X1, X2, X1c, G1full, g11, g22


def _point_algebra(t: Trial, obs: Observed):
    """(resid, grams) at the Trial ``t``: the masked residual
    where(mask, h - yT, 0) and the :func:`_grams` of its factors, which the
    objective and the gradient both read."""
    return np.where(obs.maskb, t.h - obs.yT, 0.0), _grams(t.z[0], t.z[1])


def _objective_stacked(t: Trial, obs: Observed):
    """The objective at the Trial ``t``; its point algebra goes to ``t.carry``,
    where the gradient finds it if ``t`` is the accepted trial."""
    h, hw = t.h, t.hw
    _, L, K, _ = t.z.shape
    t.carry["algebra"] = resid, (X1, X2, _, G1full, g11, g22) = _point_algebra(t, obs)
    t1 = (np.abs(resid) ** 2).sum() / (2.0 * obs.p)
    lr_h = (g22 * g11.swapaxes(-2, -1)).sum(axis=(-2, -1)).real
    t2 = 0.5 * np.maximum(lr_h - (np.abs(h) ** 2).sum(axis=-1), 0.0).sum()
    lr_w = (np.abs(g11) ** 2).sum(axis=(-2, -1))
    t3 = 0.25 * np.maximum(lr_w - (np.abs(hw) ** 2).sum(axis=-1), 0.0).sum()
    c2 = (np.abs(G1full) ** 2).sum()
    M12 = X1 @ X2.T  # Z1f^T Z2f
    cross = (np.abs(M12) ** 2).sum(axis=0).reshape(L, K).sum(axis=-1)
    b2 = (np.abs(g22) ** 2).sum(axis=(1, 2))
    t4 = 0.25 * np.maximum(c2 - 2.0 * L * cross + L * L * b2, 0.0).sum()
    return float(t1 + t2 + t3 + t4)


def _gradient(t: Trial, obs: Observed):
    """(G, G, None): the gradient at the Trial ``t``, from its transforms
    ``t.F``, its lifts and the point algebra its objective carried (made here
    when it carries none), the direction, G itself, and no first trial of
    its own.  G is K-major like the state: each term below is the transpose
    of its column form, (z S)^T = S^T z^T, so no factor is transposed."""
    state, h, hw = t.z, t.h, t.hw
    _, L, K, n = state.shape
    z1, z2 = state
    F2, F1c, F1 = _kernel_args(t.F)
    resid, (X1, X2, X1c, G1full, g11, g22) = t.carry.pop("algebra", None) or _point_algebra(t, obs)
    v = resid / obs.p - h
    # ((G v) z1)^T, ((G v) conj z2)^T and ((W hw) z1)^T, each (L, K, n)
    gv_z1, gv_z2c, ww_z1 = ops.lift_products_from_transforms(v, (F1c, F2), hw, F1)
    T12 = X2 @ X1.T  # Z2f^T Z1f
    grad = np.empty_like(state)
    gz1, gz2 = grad
    # conj((G v) conj z2) - L conj(Z2f) T12, with one conjugation of the difference
    np.conjugate(gv_z2c - L * (T12.T.conj() @ X2).reshape(L, K, n), out=gz1)
    gz1 -= ww_z1
    gz1 += (g11 + g22).swapaxes(-2, -1) @ z1
    gz1 += L * (G1full.T @ X1).reshape(L, K, n)  # L Z1f G1full
    gz1 *= 0.5
    np.add(gv_z1, (g11 + L * L * g22).swapaxes(-2, -1) @ z2, out=gz2)
    gz2 -= L * (T12 @ X1c).reshape(L, K, n)  # L conj(Z1f) T12^T
    gz2 *= 0.5
    return grad, grad, None


class LbfgsDirection:
    """One solve's L-BFGS direction.

    Called once per accepted iterate, in order, in place of
    :func:`_gradient`: ``direction(t, obs)`` returns (G, D, UNIT_TRIAL)
    with D = H G, H the inverse-Hessian approximation of the last
    ``MEMORY`` pairs (s, y) = (z_k - z_{k-1}, G_k - G_{k-1}), H0 = gamma I
    with gamma = Re<s, y> / ||y||^2 of the newest pair.  It returns
    (G, G, None) at the first iterate, when no pair is kept, and when D
    fails Re<G, D> > 0 or is not finite, which also clears the memory; a
    pair with Re<s, y> not positive and finite is skipped.

    ``size`` is the number of complex entries of the state.  The inner
    product is the real one, so the pairs are kept as float64 views of the
    complex arrays: the (2 MEMORY, 2 size) ``rows`` of one preallocated
    array of 2 MEMORY + 3 rows, s rows then y rows, filled in place in ring
    order, with their products ``rows @ rows.T`` updated a pair at a time.
    A direction reads the rows twice, once for their products with g, s
    and y, once for D.  Between the two, the two-loop recursion (Nocedal &
    Wright, *Numerical Optimization*, Alg. 7.4) runs in float arithmetic on
    the coefficients of D over the rows and g, its inner products read off
    the Gram: numpy's dispatch cost more than this k x k algebra.
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

    def __call__(self, t: Trial, obs: Observed):
        grad = _gradient(t, obs)[0]
        return (grad, *self.step(t.z, grad))

    def step(self, z: np.ndarray, grad: np.ndarray) -> tuple:
        """(D, first trial) at the iterate z with gradient ``grad``, the base
        of the next pair: (H G, UNIT_TRIAL), or (G, None) without one."""
        zr, g = z.reshape(-1).view(np.float64), grad.reshape(-1).view(np.float64)
        work = self._work
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
            return grad, None
        return d.view(np.complex128).reshape(grad.shape), UNIT_TRIAL

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
            prods = rows[:, :_BLOCK] @ work[:, :_BLOCK].T
            for c in range(_BLOCK, rows.shape[1], _BLOCK):
                prods += rows[:, c:c + _BLOCK] @ work[:, c:c + _BLOCK].T
            gram[i], gram[m + i] = prods[:, 1], prods[:, 2]
            gram[:, i], gram[:, m + i] = prods[:, 1], prods[:, 2]
            gram[i, m + i] = gram[m + i, i] = curvature  # the divisor of the recursion: positive
            wg = prods[:, 0]
            self._next, self._count = (i + 1) % m, min(self._count + 1, m)
        elif self._count:
            wg = rows @ g
        k = self._count
        if not k:
            return None
        G, w = gram.tolist(), wg.tolist()
        slots = [(self._next - k + a) % m for a in range(k)]  # oldest pair first
        live = slots + [m + a for a in slots]

        def dot(a, c):  # row a times the vector c @ buf[:2m+1], read off the Gram
            acc = c[2 * m] * w[a]
            for b in live:
                acc += c[b] * G[a][b]
            return acc

        coef = [0.0] * (2 * m) + [1.0]  # g itself
        alphas = []
        for a in reversed(slots):  # newest pair first
            alphas.append(dot(a, coef) / G[a][m + a])
            coef[m + a] -= alphas[-1]
        j = slots[-1]
        gamma = float(gram[j, m + j] / gram[m + j, m + j])  # a zero ||y||^2 gives inf: a reset
        coef = [gamma * c for c in coef]
        for a, alpha in zip(slots, reversed(alphas)):
            coef[a] += alpha - dot(m + a, coef) / G[a][m + a]
        return np.array(coef) @ self._buf[:2 * m + 1]


def objective_f(factors: FactorSetM, y: np.ndarray, mask: SamplingMask,
                dims: ProblemDims) -> float:
    """Objective value; ``y`` is the weighted signal, (full_N, L)."""
    obs = prepare_observed(y, mask, dims)
    return _objective_stacked(start_point(factors.stacked(), obs, _kernel_args), obs)


def grad_f(factors: FactorSetM, y: np.ndarray, mask: SamplingMask,
           dims: ProblemDims) -> FactorSetM:
    """Conjugate Wirtinger gradient of :func:`objective_f` at ``factors``."""
    obs = prepare_observed(y, mask, dims)
    t = start_point(factors.stacked(), obs, _kernel_args)
    return FactorSetM.from_stacked(_gradient(t, obs)[0])


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
    dims = observations.dims
    direction = LbfgsDirection(2 * dims.L * dims.n * dims.K)
    # run_descent's Trial alone holds the start state, so neither the init's
    # factors nor their K-major copy outlive the first step
    out = run_descent(start_point(spectral_init(obs.yT.T, mask, dims, seed=cfg.seed).stacked(),
                                  obs, _kernel_args),
                      lambda state: _objective_stacked(state, obs),
                      lambda state: gradient_line(state, obs, _kernel_args, direction),
                      cfg)
    return solver_report(out, obs.e, dims, ground_truth)
