"""Command-line front end: synthesis, solving, experiments, self-test.

Exit codes: 0 success, 2 usage or spec validation, 3 numerical failure
(solver breakdown or failed self-test), 4 file I/O.  Every subcommand is
deterministic given its flags and seed, timing fields excepted; synth
output files contain no timestamps at all and are byte-identical across
reruns.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as hio
from .descent import (
    STOP_LINE_SEARCH,
    STOP_NUMERICAL,
    SolverConfig,
)
from .errors import GenerationError, NumericalError
from .experiments import (
    METHODS,
    PhaseGridSpec,
    TimingSpec,
    run_phase_grid,
    run_timing,
    solver_for,
)
from .retrieval import esprit, match_frequencies
from .selftest import run_selftest
from .signals import (
    MultichannelSignal,
    ProblemDims,
    apply_mask,
    random_model,
    sample_mask,
    synthesize,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FAILURE_REASONS = {STOP_LINE_SEARCH, STOP_NUMERICAL}


class _InputFormatError(Exception):
    """Unreadable or malformed input data file; exits with the I/O code."""


def _read_input(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        raise _InputFormatError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htgd",
        description="Gradient-descent recovery of multichannel spectrally sparse signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="draw a model and write signal/mask/model files")
    p_synth.add_argument("-N", type=int, required=True, help="samples per channel")
    p_synth.add_argument("-L", type=int, required=True, help="channels")
    p_synth.add_argument("-K", type=int, required=True, help="number of sinusoids")
    p_synth.add_argument("-M", type=int, required=True, help="observed samples")
    p_synth.add_argument("--min-sep-mult", type=float, default=1.5,
                         help="frequency separation as a multiple of 1/N")
    p_synth.add_argument("--ca", action="store_true", help="constant amplitudes across channels")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=Path, default=Path("."), help="output directory")

    p_solve = sub.add_parser("solve", help="recover a signal from observed CSV + mask",
                             description="Data scaled by 2**k give exactly 2**k times the "
                                         "signal: there are no step sizes to set.")
    p_solve.add_argument("--observed", type=Path, required=True, help="observed signal CSV")
    p_solve.add_argument("--mask", type=Path, required=True, help="mask JSON")
    p_solve.add_argument("-K", type=int, required=True, help="model order")
    p_solve.add_argument("--method", choices=METHODS, default="mhtgd")
    p_solve.add_argument("--freqs", action="store_true", help="also write recovered frequencies")
    p_solve.add_argument("--ground-truth", type=Path, help="full signal CSV for NMSE")
    p_solve.add_argument("--model", type=Path,
                         help="model JSON; needs --freqs, then prints the max wrap error")
    p_solve.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_solve.add_argument("--tol", type=float, default=1e-6, help="relative-change stopping tolerance")
    p_solve.add_argument("--max-iter", type=int, default=10_000, help="iteration cap")
    p_solve.add_argument("--seed", type=int, default=0, help="master seed")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo scan from a spec file")
    p_exp.add_argument("kind", choices=("phase", "timing"))
    p_exp.add_argument("--spec", type=Path, required=True, help="spec JSON")
    p_exp.add_argument("--out", type=Path, required=True,
                       help="output CSV path; its directory is created if missing")

    p_self = sub.add_parser("selftest", help="run built-in numerical checks")
    p_self.add_argument("--seed", type=int, default=0)

    return parser


def cmd_synth(args) -> int:
    dims = ProblemDims(N=args.N, L=args.L, K=args.K, M=args.M)
    model = random_model(dims, min_sep=args.min_sep_mult / args.N,
                         is_ca=args.ca, seed=args.seed)
    signal = synthesize(model, dims)
    mask = sample_mask(dims, seed=(args.seed, 1))
    observed = apply_mask(signal, mask)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    meta = {"N": args.N, "L": args.L, "K": args.K, "M": args.M, "seed": args.seed}
    if args.N % 2 == 0:
        meta["note"] = (f"even N={args.N} is embedded to odd length {args.N + 1}; "
                        "the padded sample is never observed")
    paths = [
        hio.write_model_json(out / "model.json", model, meta=meta),
        hio.write_signal_csv(out / "signal.csv", signal),
        hio.write_mask_json(out / "mask.json", mask),
        hio.write_signal_csv(out / "observed.csv", observed),
    ]
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.model is not None and not args.freqs:  # before anything is read or written
        print("error: --model is only read with --freqs", file=sys.stderr)
        return EXIT_USAGE
    data = _read_input(hio.read_signal_csv, args.observed)
    mask = _read_input(hio.read_mask_json, args.mask)
    N, L = data.shape
    if mask.N != N:
        print(f"error: mask covers N={mask.N} but observed signal has N={N}", file=sys.stderr)
        return EXIT_USAGE
    dims = ProblemDims(N=N, L=L, K=args.K, M=mask.M)
    observations = MultichannelSignal(data=data, dims=dims)
    truth = None
    if args.ground_truth is not None:
        truth = MultichannelSignal(data=_read_input(hio.read_signal_csv, args.ground_truth),
                                   dims=dims)
    model = None
    if args.model is not None:  # read before the solve writes anything
        model = _read_input(hio.read_model_json, args.model)
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    report = solver_for(args.method)(observations, mask, cfg, ground_truth=truth)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    print(hio.write_signal_csv(out / "recovered.csv", report.x_hat))
    print(hio.write_report_json(out / "report.json", report, method=args.method))
    if args.freqs:
        est = esprit(report.x_hat, args.K)
        print(hio.write_freqs_json(out / "freqs.json", est.freqs))
        if model is not None:
            _, err = match_frequencies(est.freqs, model.freqs)
            print(f"max wrap error: {err:.3e}")
    print(f"stop reason: {report.stop_reason} after {report.iterations} iterations")
    if report.nmse is not None:
        print(f"nmse: {report.nmse:.3e}")
    if report.stop_reason in _FAILURE_REASONS:
        return EXIT_NUMERICAL
    return EXIT_OK


def _load_spec(path: Path, cls):
    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: spec must be a JSON object")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_experiment(args) -> int:
    cls = PhaseGridSpec if args.kind == "phase" else TimingSpec
    spec = _load_spec(args.spec, cls)
    args.out.parent.mkdir(parents=True, exist_ok=True)  # before any trial runs
    if args.kind == "phase":
        result = run_phase_grid(spec, csv_path=args.out)
        for cell in result.cells:
            print(f"M={cell.M} K={cell.K} rate={cell.rate:.3f}")
    else:
        result = run_timing(spec, csv_path=args.out)
        for row in result.rows:
            per = "excluded" if row.median_iter_seconds is None else f"{row.median_iter_seconds:.3e}s"
            print(f"N={row.N} M={row.M} successes={row.successes} iter_time={per}")
        if result.slope is not None:
            print(f"log-log slope: {result.slope:.3f}")
    print(result.csv_path)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        ok = ok and r.passed
    print("selftest:", "pass" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "solve": cmd_solve,
        "experiment": cmd_experiment,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (OSError, _InputFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
