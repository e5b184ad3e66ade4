"""Cold-start imports: SciPy is loaded only by the clustered-value Takagi fallback.

Each check runs in a fresh interpreter, since the test session may already
have imported SciPy (the block-fallback test of test_lowrank.py does).
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


def test_clustered_takagi_fallback_imports_scipy_on_first_use():
    out = run_fresh("""
        import json, sys, warnings
        import numpy as np
        import htgd.operators as ops
        from htgd.lowrank import randomized_lift_svd, takagi_vectors

        # G(omega * [0, 1, 0]) = [[0, 1], [1, 0]]: two unit singular values
        v = ops.weight_vector(3).omega * np.array([0.0, 1.0, 0.0], dtype=complex)
        before = "scipy.linalg" in sys.modules
        U, s, V = randomized_lift_svd(v, 2, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            U = takagi_vectors(U, s, V)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        print(json.dumps({
            "before": before,
            "after": "scipy.linalg" in sys.modules,
            "warnings": [str(w.message) for w in caught],
            "err": float(np.max(np.abs(U @ np.diag(s) @ U.T - A))),
        }))
    """)
    assert not out["before"]
    assert any("clustered" in w for w in out["warnings"])
    assert out["err"] <= 1e-10
    assert out["after"]
