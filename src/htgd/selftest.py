"""Built-in numerical health checks, runnable without the test suite.

Four check groups: operator identities, FFT fast-path equivalence,
finite-difference gradient validation for both objectives, and the
closed-form witness constructions.  Everything runs at small sizes in a
few seconds with fixed seeds.

``weight_fn`` exists as a fault-injection hook: the identity checks pull
their normalisation through it, so handing in a corrupted weight vector
must fail the G*G check (used to prove the checks can fail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .mhtgd import FactorSetM, grad_f, objective_f
from .chtgd import FactorSetC, grad_g, objective_g
from .signals import (ProblemDims, SamplingMask, make_rng, random_model, sample_mask,
                      steering)
from .witness import factor_witness_ca, factor_witness_general

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_operator_identities(rng, weight_fn) -> CheckResult:
    worst = 0.0
    for N in (5, 17, 33):
        w = weight_fn(N).omega
        a = weight_fn(N).counts
        for _ in range(10):
            x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            gg = ops.hankel_adjoint(ops.hankel_lift(x / w)) / w
            ww = ops.toeplitz_adjoint(ops.toeplitz_lift(x / w)) / w
            hh = ops.hankel_adjoint(ops.hankel_lift(x))
            scale = np.max(np.abs(x))
            worst = max(worst,
                        np.max(np.abs(gg - x)) / scale,
                        np.max(np.abs(ww - x)) / scale,
                        np.max(np.abs(hh - a * x)) / scale)
    return CheckResult("operator identities (G*G = W*W = I, H*H = a.x)",
                       worst <= 1e-12, f"max rel err {worst:.2e}")


def _check_fast_paths(rng) -> CheckResult:
    worst = 0.0
    for n in (16, 32):
        N = 2 * n - 1
        for K in (1, 3):
            v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            Z = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
            B = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
            pairs = [
                (ops.fast_lift_mul("hankel", v, Z), ops.g_apply(v) @ Z),
                (ops.fast_lift_mul("toeplitz", v, Z), ops.w_apply(v) @ Z),
                (ops.fast_adjoint_lowrank("hankel", Z, B), ops.g_adjoint(Z @ B.conj().T)),
                (ops.fast_adjoint_lowrank("toeplitz", Z, B), ops.w_adjoint(Z @ B.conj().T)),
            ]
            # the solvers' kernels on K-major factors, Z^T and conj(B)^T: G*(Z B^H),
            # W*(Z Z^H), (G v) B and (W v) Z from cached transforms
            FZ, FBc = ops.row_transforms(np.stack([Z.T, B.conj().T]))
            h, hw = ops.adjoints_from_transforms(FZ[None], FBc[None], FZ[None], n)
            pairs += [(h[0], ops.g_adjoint(Z @ B.conj().T)), (hw[0], ops.w_adjoint(Z @ Z.conj().T))]
            gb, wz = ops.lift_products_from_transforms(v[None], (FBc[None],), v[None], FZ[None])
            pairs += [(gb[0].T, ops.g_apply(v) @ B), (wz[0].T, ops.w_apply(v) @ Z)]
            # and at a line-search trial, from the transforms F - eta F' the
            # descent forms: the same adjoints at (Z - eta Z')(B - eta B')^H
            Zd = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
            Bd = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
            FZd, FBdc = ops.row_transforms(np.stack([Zd.T, Bd.conj().T]))
            for eta in (0.3, 4.0):
                Ft, FBct = FZ - eta * FZd, FBc - eta * FBdc
                h, hw = ops.adjoints_from_transforms(Ft[None], FBct[None], Ft[None], n)
                Ze, Be = Z - eta * Zd, B - eta * Bd
                pairs += [(h[0], ops.g_adjoint(Ze @ Be.conj().T)),
                          (hw[0], ops.w_adjoint(Ze @ Ze.conj().T))]
            for fast, dense in pairs:
                worst = max(worst, float(np.linalg.norm(fast - dense) / np.linalg.norm(dense)))
    return CheckResult("FFT fast paths match dense lifts",
                       worst <= 1e-10, f"max rel err {worst:.2e}")


def _fd_worst(objective, grad, rng, shape, eps=1e-6, trials=5):
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = grad(z)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fd = (objective(z + eps * d) - objective(z - eps * d)) / (2 * eps)
        an = 2.0 * np.vdot(g, d).real
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
    return worst


def _check_gradients(rng) -> CheckResult:
    dims = ProblemDims(N=15, L=2, K=2, M=10)
    y = rng.standard_normal((dims.full_N, dims.L)) + 1j * rng.standard_normal((dims.full_N, dims.L))
    mask = sample_mask(dims, seed=11)
    shape_m = (dims.L, dims.n, dims.K)

    def f_obj(z):
        return objective_f(FactorSetM(z1=z[0], z2=z[1]), y, mask, dims)

    def f_grad(z):
        g = grad_f(FactorSetM(z1=z[0], z2=z[1]), y, mask, dims)
        return np.stack([g.z1, g.z2])

    worst_f = _fd_worst(f_obj, f_grad, rng, (2,) + shape_m)

    def g_obj(z):
        return objective_g(FactorSetC(z=z), y, mask, dims)

    def g_grad(z):
        return grad_g(FactorSetC(z=z), y, mask, dims).z

    worst_g = _fd_worst(g_obj, g_grad, rng, shape_m)
    worst = max(worst_f, worst_g)
    return CheckResult("gradients match finite differences (both objectives)",
                       worst <= 1e-4, f"max rel err {worst:.2e}")


def _check_witnesses(rng) -> CheckResult:
    worst = 0.0
    for seed, is_ca in ((3, False), (4, True)):
        dims = ProblemDims(N=21, L=3, K=3, M=21)
        model = random_model(dims, min_sep=0.05, is_ca=is_ca, seed=seed)
        x_full = steering(model.freqs, dims.full_N) @ model.coefficients()
        w = ops.weight_vector(dims.full_N).omega
        y = w[:, None] * x_full
        mask = SamplingMask(indices=np.arange(1, dims.N + 1), N=dims.N)
        scale = np.linalg.norm(y)
        if is_ca:
            fw = factor_witness_ca(model, dims)
            for l in range(dims.L):
                res = np.linalg.norm(fw.z[l] @ fw.z[l].T - ops.g_apply(y[:, l]))
                worst = max(worst, res / scale)
            obj = objective_g(fw, y, mask, dims)
            gnorm = np.linalg.norm(grad_g(fw, y, mask, dims).z)
            wnorm = np.linalg.norm(fw.z)
        else:
            fw = factor_witness_general(model, dims)
            for l in range(dims.L):
                res = np.linalg.norm(fw.z2[l] @ fw.z1[l].conj().T - ops.g_apply(y[:, l]))
                worst = max(worst, res / scale)
            obj = objective_f(fw, y, mask, dims)
            g = grad_f(fw, y, mask, dims)
            gnorm = float(np.sqrt(np.linalg.norm(g.z1) ** 2 + np.linalg.norm(g.z2) ** 2))
            wnorm = float(np.sqrt(np.linalg.norm(fw.z1) ** 2 + np.linalg.norm(fw.z2) ** 2))
        worst = max(worst, obj / (1e-2 + scale ** 4), gnorm / (1.0 + wnorm ** 3) * 1e2)
    return CheckResult("closed-form witnesses are exact minimisers",
                       worst <= 1e-8, f"max rel err {worst:.2e}")


def run_selftest(seed: int = 0, weight_fn=None) -> list:
    """Run every check; returns the list of CheckResult rows."""
    weight_fn = weight_fn if weight_fn is not None else ops.weight_vector
    rng = make_rng(seed)
    return [
        _check_operator_identities(rng, weight_fn),
        _check_fast_paths(rng),
        _check_gradients(rng),
        _check_witnesses(rng),
    ]
