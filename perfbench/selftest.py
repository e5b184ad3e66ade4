"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced once and traced twice,
each in a fresh process, and checks that

* every end-to-end and per-layer metric is printed with its unit;
* the final JSON line carries exactly the metrics BENCHMARK.json declares;
* the exact counts (descent.iters, descent.evals_per_iter,
  descent.fft_calls_per_iter, recovered_frac) repeat bit for bit;

then that a missing hook target yields null metrics and a warning instead of
a crash, and that a directory without the program's sources makes the
benchmark fail without printing a result.  Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUN = HERE / "run.py"
WORKLOADS = ("scan-n65", "solve-n2047", "ca-wide")

END_TO_END = ("setup_s", "solves_per_s", "solve_s_p50", "solve_s_tail", "peak_rss_mb",
              "recovered_frac", "failed_frac", "nmse_log10_p50", "freq_err_max")
PER_LAYER = (
    "signals.gen_s", "lowrank.init_s_p50", "lowrank.init_share",
    "operators.fast_lift_mul_calls", "operators.fast_lift_mul_s",
    "descent.iters", "descent.s_per_iter_p50", "descent.evals_per_iter",
    "descent.linesearch_share", "descent.stop.converged", "descent.stop.max_iter",
    "descent.stop.line_search_failure", "descent.stop.numerical_failure",
    "descent.fft_calls_per_iter", "descent.fft_points_per_iter", "descent.ns_per_model_op",
    "mhtgd.objective_s_p50", "mhtgd.grad_s_p50", "chtgd.objective_s_p50", "chtgd.grad_s_p50",
    "retrieval.esprit_s_p50", "retrieval.esprit_share", "retrieval.match_s",
    "experiments.solver_share", "trace.overhead_frac",
)
EXACT = ("descent.iters", "descent.evals_per_iter", "descent.fft_calls_per_iter")


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def run(workload, trace, argv=None, cwd=ROOT):
    cmd = argv or [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n"
          f"{proc.stdout}{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed5-trace{trace}-tiny.json").read_text())
    return proc, last, record


def check_final_line(last, declared, where):
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(last)}")
    check(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
          f"{where}: {last}")
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{where}: final metrics {got} differ from BENCHMARK.json {want}")
    for name, v in last["metrics"].items():
        check(isinstance(v["value"], (int, float)), f"{where}: {name} is {v['value']!r}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in WORKLOADS:
        proc, last, record = run(w, 0)
        check_final_line(last, declared["end_to_end"], f"{w} trace 0")
        for name in END_TO_END:
            check(name in record["end_to_end"] and record["end_to_end"][name][1],
                  f"{w}: end-to-end metric {name} missing or without unit")
            check(name in proc.stdout, f"{w}: {name} not printed")
        recovered = record["end_to_end"]["recovered_frac"][0]

        counts = []
        for _ in range(2):
            proc, last, record = run(w, 1)
            check_final_line(last, declared["per_layer"], f"{w} trace 1")
            for name in PER_LAYER:
                check(name in record["per_layer"] and record["per_layer"][name][1],
                      f"{w}: per-layer metric {name} missing or without unit")
                check(name in proc.stdout, f"{w}: {name} not printed")
            counts.append([record["per_layer"][n][0] for n in EXACT] + [record["recovered_frac"]])
        check(counts[0] == counts[1], f"{w}: exact counts differ over two runs: {counts}")
        check(counts[0][-1] == recovered, f"{w}: recovered_frac differs traced vs untraced")
        print(f"ok  {w}: counts {dict(zip(EXACT + ('recovered_frac',), counts[0]))}")

    # a hook whose target vanished: null metrics and a warning, no crash
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import spans; "
            "spans.TARGETS = tuple(t if t[1] != 'esprit' else "
            "('htgd.retrieval', 'esprit_renamed', t[2]) for t in spans.TARGETS); "
            "import run; sys.exit(run.main(['--workload', 'ca-wide', '--seed', '5', "
            "'--seconds', '1', '--trace', '1', '--tiny']))")
    proc, last, record = run("ca-wide", 1, argv=[sys.executable, "-c", code])
    check("esprit_renamed" in proc.stderr, "missing hook target gave no warning")
    check(record["per_layer"]["retrieval.esprit_s_p50"][0] is None
          and record["per_layer"]["retrieval.esprit_share"][0] is None,
          "metrics of a missing hook are not null")
    check(record["per_layer"]["descent.iters"][0] is not None, "other metrics went null too")
    print("ok  missing hook target -> null metrics with a warning")

    # only BENCHMARK.json and the benchmark's own files: must fail, print no result
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / HERE.name)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ca-wide",
                           "--seed", "5", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  directory without sources -> exit code", proc.returncode)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
