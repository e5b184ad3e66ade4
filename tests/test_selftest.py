import time

import numpy as np

import htgd.operators as ops
from htgd.selftest import run_selftest


def test_fresh_build_passes_quickly():
    t0 = time.perf_counter()
    results = run_selftest()
    assert time.perf_counter() - t0 < 60
    assert len(results) == 4
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.detail


def test_corrupted_weights_fail_the_identity_check():
    def corrupted(N):
        real = ops.weight_vector(N)
        omega = real.omega.copy()
        omega[0] *= 1.5  # breaks G*G = I on the first coordinate
        return ops.WeightVector(counts=real.counts, omega=omega)

    results = run_selftest(weight_fn=corrupted)
    identity = [r for r in results if "identities" in r.name]
    assert len(identity) == 1 and not identity[0].passed
    # the hook only feeds the identity suite; everything else still passes
    for r in results:
        if "identities" not in r.name:
            assert r.passed


def test_results_are_deterministic():
    a = run_selftest(seed=3)
    b = run_selftest(seed=3)
    assert [(r.name, r.passed, r.detail) for r in a] == \
        [(r.name, r.passed, r.detail) for r in b]


def test_corrupted_lift_adjoints_fail_the_fast_path_check(monkeypatch):
    real = ops.adjoints_from_transforms

    def corrupted(*args):
        h, hw = real(*args)
        return h, np.roll(hw, 1, axis=-1)  # Toeplitz lags off by one

    monkeypatch.setattr(ops, "adjoints_from_transforms", corrupted)
    fast = [r for r in run_selftest() if "fast paths" in r.name]
    assert len(fast) == 1 and not fast[0].passed


def test_corrupted_lift_products_fail_the_fast_path_check(monkeypatch):
    real = ops.lift_products_from_transforms

    def corrupted(*args):
        *gv, wu = real(*args)
        return (*gv, np.roll(wu, 1, axis=-1))  # Toeplitz rows off by one

    monkeypatch.setattr(ops, "lift_products_from_transforms", corrupted)
    fast = [r for r in run_selftest() if "fast paths" in r.name]
    assert len(fast) == 1 and not fast[0].passed
