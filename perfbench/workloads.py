"""The benchmark's workloads: inputs drawn from the seed, solved one at a time.

Each workload is a closed loop: the next unit of work starts only after the
previous one has finished.  A unit is one solve (``solve-n2047``,
``ca-wide``) or one ``run_phase_grid`` call, a round (``scan-n65``).  Everything
the program receives is generated here from ``--seed`` through the public
API, so one seed always gives the same inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import htgd
from htgd.experiments import SUCCESS_NMSE

# stop reasons that count as a failed operation; "max_iter" and a converged
# wrong point are expected outcomes inside a phase transition
FAILED_STOPS = ("numerical_failure", "line_search_failure")
# worst matched frequency error a recovered solve may show: 1% of a DFT bin
FREQ_TOL_BINS = 0.01


@dataclass(frozen=True)
class SolveShape:
    N: int
    L: int
    K: int
    M: int
    ca: bool  # constant amplitude: chtgd, else mhtgd
    pool: int  # distinct inputs drawn; the loop cycles through them

    @property
    def dims(self):
        return htgd.ProblemDims(N=self.N, L=self.L, K=self.K, M=self.M)


@dataclass(frozen=True)
class ScanShape:
    N: int
    L: int
    M: int
    K: int
    trials: int  # per round, in one run_phase_grid call


SHAPES = {
    "scan-n65": ScanShape(N=65, L=5, M=35, K=4, trials=4),
    "solve-n2047": SolveShape(N=2047, L=3, K=3, M=1637, ca=False, pool=12),
    "ca-wide": SolveShape(N=255, L=32, K=6, M=160, ca=True, pool=16),
}
# the same code paths at sizes that take a second, for the self-test
TINY_SHAPES = {
    "scan-n65": ScanShape(N=17, L=2, M=15, K=2, trials=3),
    # n = 385 is the smallest size that takes the randomized init path
    "solve-n2047": SolveShape(N=769, L=2, K=2, M=700, ca=False, pool=2),
    "ca-wide": SolveShape(N=63, L=4, K=3, M=50, ca=True, pool=2),
}


@dataclass
class SolveInput:
    model: object
    truth: object
    observed: object
    mask: object
    config: object


@dataclass
class Outcome:
    """One solve as seen from outside the program."""

    seconds: float
    recovered: bool
    failed: bool
    problem: str | None = None  # why it failed, for the printed report
    iterations: int | None = None
    stop_reason: str | None = None
    nmse: float | None = None
    freq_err: float | None = None


@dataclass
class UnitResult:
    """One unit of work: a solve, or a scan round with its success vectors."""

    outcomes: list
    vectors: list


def make_solve_inputs(shape: SolveShape, seed: int) -> list:
    dims = shape.dims
    inputs = []
    for i in range(shape.pool):
        ss_model, ss_mask, ss_solver = np.random.SeedSequence((seed, i)).spawn(3)
        model = htgd.random_model(dims, min_sep=1.5 / shape.N, is_ca=shape.ca, seed=ss_model)
        truth = htgd.synthesize(model, dims)
        mask = htgd.sample_mask(dims, seed=ss_mask)
        inputs.append(SolveInput(
            model=model, truth=truth, observed=htgd.apply_mask(truth, mask), mask=mask,
            config=htgd.SolverConfig(seed=int(ss_solver.generate_state(1)[0]))))
    return inputs


def solve_once(shape: SolveShape, inp: SolveInput) -> Outcome:
    """Solver then ESPRIT, timed together; frequency matching is scoring, outside."""
    solver = htgd.solve_chtgd if shape.ca else htgd.solve_mhtgd
    t0 = time.perf_counter()
    try:
        report = solver(inp.observed, inp.mask, inp.config, ground_truth=inp.truth)
    except Exception as exc:  # a raising solve is a failed operation, not a crash
        return Outcome(time.perf_counter() - t0, False, True, f"solver raised {exc!r}")
    try:
        est = htgd.esprit(report.x_hat, shape.K)
    except Exception as exc:
        return Outcome(time.perf_counter() - t0, False, True, f"esprit raised {exc!r}",
                       report.iterations, report.stop_reason, report.nmse)
    seconds = time.perf_counter() - t0
    _, err = htgd.match_frequencies(est.freqs, inp.model.freqs)
    out = Outcome(seconds, report.nmse <= SUCCESS_NMSE, False, None,
                  report.iterations, report.stop_reason, report.nmse, err)
    tol = FREQ_TOL_BINS / shape.N
    if report.stop_reason in FAILED_STOPS:
        out.problem = f"stopped with {report.stop_reason}"
    elif not out.recovered:
        out.problem = f"NMSE {report.nmse:.3g} above {SUCCESS_NMSE:g}"
    elif not err <= tol:
        out.problem = f"frequency error {err:.3g} above {tol:.3g}"
    out.failed = out.problem is not None
    return out


def scan_round(shape: ScanShape, seed: int, r: int) -> UnitResult:
    """One round: a phase-grid cell of ``shape.trials`` trials.

    Round ``r`` takes its master seed from (seed, r), so every round draws
    new trials while the whole run stays a function of ``seed``.  The
    outcomes carry the cell's mean time per trial; single trials are not
    visible from outside ``run_phase_grid``.
    """
    spec = htgd.PhaseGridSpec(N=shape.N, L=shape.L, m_values=(shape.M,), k_values=(shape.K,),
                              trials=shape.trials, method="mhtgd",
                              seed=int(np.random.SeedSequence((seed, r)).generate_state(1)[0]))
    t0 = time.perf_counter()
    result = htgd.run_phase_grid(spec)
    seconds = (time.perf_counter() - t0) / shape.trials
    (cell,) = result.cells
    reasons = dict(cell.failure_reasons)
    outcomes = []
    for t, ok in enumerate(cell.outcomes):
        reason = reasons.get(t)
        # besides these two, a reason is a failure stop or a raised exception
        failed = reason is not None and reason not in ("converged", "max_iter")
        outcomes.append(Outcome(seconds, ok, failed,
                                f"round {r} trial {t}: {reason}" if failed else None,
                                stop_reason=reason))
    return UnitResult(outcomes, [result.success_vector()])


def closed_loop(unit, seconds: float, units: int | None = None) -> tuple:
    """Run ``unit(i)`` back to back for ``seconds`` (or exactly ``units`` times).

    Returns (results in order, wall seconds).  A unit starts only while it
    is expected to end less than half a unit past ``seconds``, so the wall
    time stays close to ``seconds`` however long a unit takes; every unit
    started finishes and counts.
    """
    results = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if units is not None:
            if len(results) >= units:
                break
        elif results and elapsed + 0.5 * elapsed / len(results) >= seconds:
            break
        results.append(unit(len(results)))
    return results, time.perf_counter() - t0
