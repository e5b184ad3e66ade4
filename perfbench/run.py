"""Solve benchmark for htgd.

    python3 perfbench/run.py --workload scan-n65 --seed 1 --seconds 35 --trace 0

Runs one workload (scan-n65, solve-n2047 or ca-wide) in this process as a
closed loop for ``--seconds``, checks every output, prints the metrics, and
ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--trace 0`` times the program untouched and reports the end-to-end
metrics.  ``--trace 1`` spends half the time on an untraced pass, then
replays exactly the same work with the layer hooks of ``spans.py`` on, and
reports the per-layer metrics, the tracing overhead, and whether both
passes gave identical results.  A full record, with the environment, goes
to ``perfbench/results/``.  Exit code 0 means every check passed, 1 that
a check failed, 2 that the program or the arguments are unusable.
"""

import os

# one BLAS/OpenMP thread: the plain single-threaded baseline, and the second
# core left for noise.  Must be set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("scan-n65", "solve-n2047", "ca-wide")
SETUP_PROBES = 5


def declared(kind: str) -> list:
    """Names of the ``kind`` metrics ("end_to_end" or "per_layer") that
    BENCHMARK.json declares: exactly these go into the final JSON line."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes and a fixed amount of work instead of --seconds")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "htgd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def time_setup(args) -> float:
    """Median wall time from starting a fresh process until it has set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def tail(values):
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end(outcomes, wall, setup_s, solve_workload) -> dict:
    """Every end-to-end metric, ``{name: (value or None, unit)}``."""
    n = len(outcomes)
    lat = [o.seconds for o in outcomes] if solve_workload else []
    tail_s, tail_pct = tail(lat)
    errs = [o.freq_err for o in outcomes if o.freq_err is not None]
    nmse_log = [math.log10(o.nmse) for o in outcomes if o.nmse]
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (n / wall, "1/s"),
        "solve_s_p50": (statistics.median(lat) if lat else None, "s"),
        "solve_s_tail": (tail_s, "s"),
        "solve_s_tail_pct": (tail_pct, "percentile"),
        "solve_samples": (len(lat) if solve_workload else None, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "recovered_frac": (sum(o.recovered for o in outcomes) / n, "share"),
        "failed_frac": (sum(o.failed for o in outcomes) / n, "share"),
        "nmse_log10_p50": (statistics.median(nmse_log) if nmse_log else None, "log10"),
        "freq_err_max": (max(errs) if errs else None, "cycles/sample"),
    }


def print_table(title, metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")


def measure(args, workloads, unit, setup_s, solve_workload):
    """Untraced closed loop; returns (final metrics, record, outcomes, problems)."""
    results, wall = workloads.closed_loop(unit, args.seconds, 2 if args.tiny else None)
    outcomes = [o for r in results for o in r.outcomes]
    metrics = end_to_end(outcomes, wall, setup_s, solve_workload)
    print_table(f"{args.workload} seed {args.seed}: {len(outcomes)} solves in {wall:.2f} s",
                metrics)
    final = {name: metrics[name] for name in declared("end_to_end")}
    return final, {"end_to_end": metrics}, outcomes, []


def measure_traced(args, workloads, spans, hooks, unit, shape, solve_workload, setup_end):
    """Untraced pass, then the same units traced; compares the two passes."""
    tracer = hooks.tracer

    def traced_unit(i):
        if not solve_workload:  # run_phase_grid is hooked; its trials carry the ids
            return unit(i)
        tracer.solve = i
        idx = tracer.open("solve")
        try:
            return unit(i)
        finally:
            tracer.close(idx)
            tracer.solve = None

    hooks.set_traced(False)
    plain, wall_plain = workloads.closed_loop(unit, args.seconds / 2, 2 if args.tiny else None)
    plain_iters = list(tracer.solver_iterations)
    hooks.set_traced(True)
    first_span = len(tracer.spans)
    traced, wall_traced = workloads.closed_loop(traced_unit, 0, len(plain))
    hooks.set_traced(False)
    traced_iters = tracer.solver_iterations[len(plain_iters):]
    outcomes = [o for r in traced for o in r.outcomes]
    plain_outcomes = [o for r in plain for o in r.outcomes]

    # both passes ran the same inputs, so every result must match
    problems = []
    if [r.vectors for r in plain] != [r.vectors for r in traced]:
        problems.append("success vectors differ between the untraced and traced pass")
    if plain_iters != traced_iters:
        problems.append("per-trial iteration counts differ between the passes")
    keys = [(o.recovered, o.iterations, o.stop_reason, o.nmse) for o in plain_outcomes]
    if keys != [(o.recovered, o.iterations, o.stop_reason, o.nmse) for o in outcomes]:
        problems.append("per-solve results differ between the untraced and traced pass")

    metrics = spans.layer_metrics(
        tracer, hooks, first_span=first_span, solves=len(outcomes),
        solve_span="solve" if solve_workload else "experiments.solve",
        model_ops=spans.model_ops(shape.N, shape.L, shape.K),
        gen_spans=range(0, setup_end) if solve_workload else range(first_span, len(tracer.spans)))
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "share")
    print_table(f"{args.workload} seed {args.seed} traced: {len(outcomes)} solves, "
                f"{wall_plain:.2f} s untraced, {wall_traced:.2f} s traced", metrics)
    record = {
        "per_layer": metrics,
        "self_seconds": spans.self_times(tracer.spans, first_span),
        "walls": {"untraced_s": wall_plain, "traced_s": wall_traced},
        "recovered_frac": sum(o.recovered for o in outcomes) / len(outcomes),
        "warnings": hooks.warnings,
    }
    final = {name: metrics[name] for name in declared("per_layer")}
    return final, record, plain_outcomes + outcomes, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "htgd" / "__init__.py").is_file():
        print(f"error: no htgd sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    setup_s = None
    if not args.trace and not args.setup_probe:
        setup_s = time_setup(args)

    hooks = None
    if args.trace:
        import spans
        hooks = spans.Hooks(spans.Tracer())
        spans.install_fft_hooks(hooks)  # before htgd binds any FFT name
    sys.path.insert(0, str(SRC))
    import htgd
    if not Path(htgd.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported htgd from {htgd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if hooks is not None:
        spans.install_htgd_hooks(hooks)
    import workloads

    shape = (workloads.TINY_SHAPES if args.tiny else workloads.SHAPES)[args.workload]
    solve_workload = isinstance(shape, workloads.SolveShape)
    inputs = workloads.make_solve_inputs(shape, args.seed) if solve_workload else None
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    def unit(i):
        """One solve, or one scan round."""
        if solve_workload:
            return workloads.UnitResult([workloads.solve_once(shape, inputs[i % len(inputs)])], [])
        return workloads.scan_round(shape, args.seed, i)

    if args.trace:
        final, record, outcomes, problems = measure_traced(
            args, workloads, spans, hooks, unit, shape, solve_workload, len(hooks.tracer.spans))
    else:
        final, record, outcomes, problems = measure(args, workloads, unit, setup_s, solve_workload)
    problems += [o.problem for o in outcomes if o.failed]
    for p in problems:
        print(f"check failed: {p}")
    correct = not problems

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "shape": vars(shape), "correct": correct, "problems": problems,
        "solves": [vars(o) for o in outcomes],
    })
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for span in hooks.tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in final.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
