"""The solver names a tracing harness wraps are the ones the solvers call.

A tracer that wraps ``run_descent`` and the spectral inits in each solver
module sees a solve only if the solver looks these names up in its own
module's globals, and reads ``iterations``, ``stop_reason`` and
``iter_seconds`` off the descent's result.
"""

import pytest

from htgd import chtgd, mhtgd
from htgd.descent import SolverConfig, Trial
from htgd.signals import ProblemDims, apply_mask, random_model, sample_mask, synthesize


@pytest.mark.parametrize("module,solve,init_name,is_ca", [
    (mhtgd, mhtgd.solve_mhtgd, "spectral_init", False),
    (chtgd, chtgd.solve_chtgd, "spectral_init_ca", True)], ids=["mhtgd", "chtgd"])
def test_solver_calls_descent_and_init_through_its_module(monkeypatch, module, solve,
                                                          init_name, is_ca):
    calls = {init_name: [], "run_descent": []}

    def spy(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append((args, kwargs, out))
            return out
        monkeypatch.setattr(module, name, wrapper)

    spy(init_name)
    spy("run_descent")
    dims = ProblemDims(N=33, L=2, K=2, M=24)
    sig = synthesize(random_model(dims, min_sep=1.5 / 33, is_ca=is_ca, seed=5), dims)
    mask = sample_mask(dims, seed=1)
    report = solve(apply_mask(sig, mask), mask, SolverConfig(seed=2))
    assert len(calls[init_name]) == 1
    ((args, kwargs, out),) = calls["run_descent"]
    assert not kwargs and len(args) == 4
    state, objective, grad_and_signal, cfg = args
    assert isinstance(state, Trial) and callable(objective) and callable(grad_and_signal)
    assert isinstance(cfg, SolverConfig)
    assert out.iterations == report.iterations > 0
    assert out.stop_reason == report.stop_reason
    assert len(out.iter_seconds) == out.iterations
