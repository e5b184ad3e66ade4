"""Imports: the package needs NumPy alone, and loads no SciPy.

Each check runs in a fresh interpreter, so that the modules it finds loaded,
or the ones it blocks, are those of the code it runs and not of the test
session.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import htgd

# the directory the suite imports htgd from, so the child runs the same code
HTGD_ROOT = str(Path(htgd.__file__).resolve().parents[1])


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (HTGD_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_solves_esprit_and_selftest_load_no_scipy():
    out = run_fresh("""
        import json, sys
        import htgd, htgd.cli
        from htgd.chtgd import solve_chtgd
        from htgd.mhtgd import solve_mhtgd
        from htgd.retrieval import esprit
        from htgd.signals import (ProblemDims, apply_mask, random_model, sample_mask,
                                  synthesize)

        dims = ProblemDims(N=65, L=5, K=4, M=35)
        mask = sample_mask(dims, seed=2)
        stops = []
        for solve, is_ca in ((solve_mhtgd, False), (solve_chtgd, True)):
            truth = synthesize(random_model(dims, min_sep=1.0 / 65, is_ca=is_ca, seed=1), dims)
            report = solve(apply_mask(truth, mask), mask)
            esprit(report.x_hat, dims.K)
            stops.append(report.stop_reason)
        code = htgd.cli.main(["selftest"])
        print(json.dumps({"stops": stops, "selftest": code,
                          "scipy": sorted(m for m in sys.modules
                                          if m == "scipy" or m.startswith("scipy."))}))
    """)
    assert out["stops"] == ["converged", "converged"]
    assert out["selftest"] == 0
    assert out["scipy"] == []


def test_package_runs_with_scipy_blocked():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    out = run_fresh("""
        import json, sys, warnings
        sys.modules["scipy"] = None
        import numpy as np
        import htgd.cli
        import htgd.operators as ops
        from htgd.chtgd import solve_chtgd
        from htgd.descent import SolverConfig
        from htgd.lowrank import randomized_lift_svd, takagi_factors
        from htgd.signals import (ProblemDims, apply_mask, random_model, sample_mask,
                                  synthesize)

        # G(omega * [0, 1, 0]) = [[0, 1], [1, 0]]: two unit singular values
        v = ops.weight_vector(3).omega * np.array([0.0, 1.0, 0.0], dtype=complex)
        U, s, V = randomized_lift_svd(v, 2, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Z = takagi_factors(U, s, V)
            # the M = 1 chtgd edge case of test_descent.py, whose init meets a tie
            dims = ProblemDims(N=33, L=2, K=2, M=1)
            sig = synthesize(random_model(dims, min_sep=1.5 / 33, is_ca=True, seed=3), dims)
            mask = sample_mask(dims, seed=(3, 1))
            report = solve_chtgd(apply_mask(sig, mask), mask,
                                 SolverConfig(max_iter=300, seed=1), ground_truth=sig)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        print(json.dumps({
            "warnings": [str(w.message) for w in caught],
            "err": float(np.max(np.abs(Z @ Z.T - A))),
            "stop": report.stop_reason,
            "finite": bool(np.all(np.isfinite(report.x_hat))),
            "selftest": htgd.cli.main(["selftest"]),
        }))
    """)
    assert out["warnings"] == []
    assert out["err"] <= 1e-10
    assert out["stop"] == "converged" and out["finite"]
    assert out["selftest"] == 0
