"""Acceptance gate: nine numbered end-to-end criteria with runtime budgets.

Each test is one criterion; `pytest -v` therefore prints one pass/fail line
per criterion.  Heavy Monte Carlo runs are shared through module-scoped
fixtures so the determinism criterion can replay them against fresh runs.
"""

import time

import numpy as np
import pytest

import htgd.operators as ops
from htgd.chtgd import FactorSetC, grad_g, objective_g
from htgd.experiments import PhaseGridSpec, TimingSpec, run_phase_grid, run_timing
from htgd.mhtgd import FactorSetM, grad_f, objective_f
from htgd.retrieval import esprit, match_frequencies
from htgd.signals import (
    ProblemDims,
    SamplingMask,
    make_rng,
    random_model,
    sample_mask,
    synthesize,
)
from htgd.witness import factor_witness_ca, factor_witness_general

MASTER_SEED = 2024

# N=65, L=5, K=4 grid cell; M pinned after a one-off scan over {30, 35, 40, 45}.
RECOVERY_SPECS = {
    "mhtgd": PhaseGridSpec(N=65, L=5, m_values=(35,), k_values=(4,), trials=20,
                           min_sep_mult=1.5, method="mhtgd", seed=MASTER_SEED),
    "chtgd": PhaseGridSpec(N=65, L=5, m_values=(35,), k_values=(4,), trials=20,
                           min_sep_mult=1.5, method="chtgd", is_ca=True,
                           seed=MASTER_SEED),
}

CORNER_SPECS = {
    "easy": PhaseGridSpec(N=65, L=5, m_values=(65,), k_values=(1,), trials=20,
                          min_sep_mult=1.5, method="mhtgd", seed=MASTER_SEED),
    "hard": PhaseGridSpec(N=65, L=5, m_values=(3,), k_values=(4,), trials=20,
                          min_sep_mult=1.5, method="mhtgd", seed=MASTER_SEED),
}


@pytest.fixture(scope="module")
def recovery_runs():
    start = time.perf_counter()
    results = {name: run_phase_grid(spec) for name, spec in RECOVERY_SPECS.items()}
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def corner_runs():
    start = time.perf_counter()
    results = {name: run_phase_grid(spec) for name, spec in CORNER_SPECS.items()}
    return results, time.perf_counter() - start


def test_criterion_1_operator_identities():
    start = time.perf_counter()
    rng = make_rng(MASTER_SEED)
    for N in (5, 33, 65, 257):
        counts = ops.weight_vector(N).counts
        for _ in range(50):
            x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            scale = np.max(np.abs(x))
            assert np.max(np.abs(ops.g_adjoint(ops.g_apply(x)) - x)) <= 1e-12 * scale
            assert np.max(np.abs(ops.w_adjoint(ops.w_apply(x)) - x)) <= 1e-12 * scale
            hx = ops.hankel_adjoint(ops.hankel_lift(x))
            assert np.max(np.abs(hx - counts * x)) <= 1e-12 * scale
            tx = ops.toeplitz_adjoint(ops.toeplitz_lift(x))
            assert np.max(np.abs(tx - counts * x)) <= 1e-12 * scale
    assert time.perf_counter() - start < 5.0


def test_criterion_2_fast_path_equivalence():
    # the FFT entry point of each lift operation against its dense oracle: the
    # range finder's fast_lift_mul, and the kernels every solve runs on
    # K-major transforms, (G v) A and (W v) A, then G*(A B^H) and W*(A A^H)
    start = time.perf_counter()
    rng = make_rng(MASTER_SEED + 1)
    for n in (64, 256):
        N = 2 * n - 1
        for K in (1, 4):
            for _ in range(50):
                v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                A = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
                B = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
                FA, FAc, FBc = ops.row_transforms(np.stack([A.T, A.conj().T, B.conj().T]))
                gv, wv = ops.lift_products_from_transforms(v[None], (FAc[None],), v[None], FA[None])
                h, hw = ops.adjoints_from_transforms(FA[None], FBc[None], FA[None], n)
                gv_dense = ops.g_apply(v) @ A
                for fast, dense in ((ops.fast_lift_mul(v, A), gv_dense),
                                    (gv[0].T, gv_dense),
                                    (wv[0].T, ops.w_apply(v) @ A),
                                    (h[0], ops.g_adjoint(A @ B.conj().T)),
                                    (hw[0], ops.w_adjoint(A @ A.conj().T))):
                    assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)
    assert time.perf_counter() - start < 10.0


def test_criterion_3_gradient_finite_differences():
    start = time.perf_counter()
    rng = make_rng(MASTER_SEED + 2)
    eps = 1e-6
    ratios = []
    for trial in range(20):
        L = 2 + trial % 2
        dims = ProblemDims(N=15, L=L, K=2, M=10)
        y = rng.standard_normal((15, L)) + 1j * rng.standard_normal((15, L))
        mask = sample_mask(dims, seed=(MASTER_SEED, trial))

        shape = (L, dims.n, dims.K)
        z1, z2, d1, d2, z, d = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                                for _ in range(6))

        factors = FactorSetM(z1=z1, z2=z2)
        g = grad_f(factors, y, mask, dims)
        fp = objective_f(FactorSetM(z1 + eps * d1, z2 + eps * d2), y, mask, dims)
        fm = objective_f(FactorSetM(z1 - eps * d1, z2 - eps * d2), y, mask, dims)
        inner = (np.vdot(g.z1, d1) + np.vdot(g.z2, d2)).real
        ratios.append((fp - fm) / (2 * eps) / inner)

        gc = grad_g(FactorSetC(z=z), y, mask, dims)
        gp = objective_g(FactorSetC(z + eps * d), y, mask, dims)
        gm = objective_g(FactorSetC(z - eps * d), y, mask, dims)
        ratios.append((gp - gm) / (2 * eps) / np.vdot(gc.z, d).real)

    kappa = float(np.median(ratios))
    assert np.max(np.abs(np.asarray(ratios) - kappa)) <= 1e-4 * abs(kappa)
    assert time.perf_counter() - start < 10.0


def _witness_problem(trial, is_ca):
    N, L = 21, 3
    K = 1 + trial % 5
    dims = ProblemDims(N=N, L=L, K=K, M=N)
    model = random_model(dims, min_sep=0.04, is_ca=is_ca, seed=(MASTER_SEED, trial))
    sig = synthesize(model, dims)
    w = ops.weight_vector(N).omega
    y = (w[:, None] * sig.data.astype(complex))
    mask = SamplingMask(indices=np.arange(1, N + 1), N=N)
    return dims, model, y, mask


def _rel(err, ref):
    return err / max(ref, 1e-300)


def test_criterion_4_exact_factor_witnesses():
    start = time.perf_counter()
    for trial in range(20):
        dims, model, y, mask = _witness_problem(trial, is_ca=False)
        L = dims.L
        fw = factor_witness_general(model, dims)
        z1, z2 = fw.z1, fw.z2
        gram_sum = sum(np.conj(z1[q]) @ z1[q].T for q in range(L))
        for l in range(L):
            lifted = z2[l] @ z1[l].conj().T
            proj = ops.g_apply(ops.g_adjoint(lifted))
            assert _rel(np.linalg.norm(lifted - proj), np.linalg.norm(lifted)) <= 1e-8
            assert (np.linalg.norm(ops.g_adjoint(lifted) - y[:, l])
                    <= 1e-8 * np.linalg.norm(y[:, l]))
            t_struct = z1[l] @ z1[l].conj().T
            t_proj = ops.w_apply(ops.w_adjoint(t_struct))
            assert _rel(np.linalg.norm(t_struct - t_proj), np.linalg.norm(t_struct)) <= 1e-8
            balance = L * z2[l] @ z2[l].conj().T
            assert _rel(np.linalg.norm(gram_sum - balance), np.linalg.norm(gram_sum)) <= 1e-8
        zero = FactorSetM(z1=np.zeros_like(z1), z2=np.zeros_like(z2))
        data_scale = objective_f(zero, y, mask, dims)
        assert objective_f(fw, y, mask, dims) <= 1e-10 * data_scale
        g = grad_f(fw, y, mask, dims)
        gnorm = np.sqrt(np.linalg.norm(g.z1) ** 2 + np.linalg.norm(g.z2) ** 2)
        wnorm = np.sqrt(np.linalg.norm(z1) ** 2 + np.linalg.norm(z2) ** 2)
        assert gnorm <= 1e-6 * (1.0 + wnorm ** 3)

        dims, model, y, mask = _witness_problem(trial, is_ca=True)
        fw = factor_witness_ca(model, dims)
        z = fw.z
        anchor_gram = z[0] @ z[0].conj().T
        for l in range(dims.L):
            lifted = z[l] @ z[l].T
            proj = ops.g_apply(ops.g_adjoint(lifted))
            assert _rel(np.linalg.norm(lifted - proj), np.linalg.norm(lifted)) <= 1e-8
            assert (np.linalg.norm(ops.g_adjoint(lifted) - y[:, l])
                    <= 1e-8 * np.linalg.norm(y[:, l]))
            shared = z[l] @ z[l].conj().T
            assert _rel(np.linalg.norm(shared - anchor_gram),
                        np.linalg.norm(anchor_gram)) <= 1e-8
        t_proj = ops.w_apply(ops.w_adjoint(anchor_gram))
        assert _rel(np.linalg.norm(anchor_gram - t_proj),
                    np.linalg.norm(anchor_gram)) <= 1e-8
        zero = FactorSetC(z=np.zeros_like(z))
        data_scale = objective_g(zero, y, mask, dims)
        assert objective_g(fw, y, mask, dims) <= 1e-10 * data_scale
        gnorm = np.linalg.norm(grad_g(fw, y, mask, dims).z)
        assert gnorm <= 1e-6 * (1.0 + np.linalg.norm(z) ** 3)
    assert time.perf_counter() - start < 10.0


def test_criterion_5_recovery_rates(recovery_runs):
    results, elapsed = recovery_runs
    for name, result in results.items():
        cell = result.cells[0]
        assert cell.successes >= 18, (
            f"{name}: {cell.successes}/20 trials reached the NMSE threshold")
    assert elapsed < 900.0


def test_criterion_6_phase_grid_corners(corner_runs):
    results, elapsed = corner_runs
    assert results["easy"].rate(65, 1) == 1.0
    assert results["hard"].rate(3, 4) <= 0.1
    assert elapsed < 300.0


def test_criterion_7_complexity_scaling():
    start = time.perf_counter()
    result = run_timing(TimingSpec(seed=MASTER_SEED))
    assert result.slope is not None
    assert result.slope <= 1.35
    assert time.perf_counter() - start < 600.0


def test_criterion_8_retrieval_round_trip():
    start = time.perf_counter()
    rng = make_rng(MASTER_SEED + 3)
    worst = 0.0
    for trial in range(100):
        K = int(rng.integers(1, 9))
        L = 1 + trial % 2
        dims = ProblemDims(N=65, L=L, K=K, M=65)
        model = random_model(dims, min_sep=1.5 / 65, seed=(MASTER_SEED, 3, trial))
        sig = synthesize(model, dims)
        est = esprit(sig, K)
        _, err = match_frequencies(est.freqs, model.freqs)
        worst = max(worst, err)
    assert worst <= 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_9_determinism(recovery_runs, corner_runs):
    first_recovery, _ = recovery_runs
    first_corner, _ = corner_runs
    for name, spec in RECOVERY_SPECS.items():
        replay = run_phase_grid(spec)
        assert replay.success_vector() == first_recovery[name].success_vector()
    for name, spec in CORNER_SPECS.items():
        replay = run_phase_grid(spec)
        assert replay.success_vector() == first_corner[name].success_vector()
