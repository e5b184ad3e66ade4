import dataclasses
import json

import numpy as np
import pytest

import htgd.io as hio
from htgd.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from htgd.mhtgd import solve_mhtgd


def run_cli(*argv):
    return main([str(a) for a in argv])


def synth_dir(tmp_path, name="d", N=33, M=24, seed=5, extra=()):
    out = tmp_path / name
    code = run_cli("synth", "-N", N, "-L", 2, "-K", 2, "-M", M,
                   "--seed", seed, "--out", out, *extra)
    assert code == EXIT_OK
    return out


def test_synth_writes_all_files(tmp_path, capsys):
    out = synth_dir(tmp_path)
    for name in ("model.json", "signal.csv", "mask.json", "observed.csv"):
        assert (out / name).exists()
    model = json.loads((out / "model.json").read_text())
    assert set(model) >= {"freqs", "amps", "phases", "is_ca"}
    assert "note" not in model["meta"]  # odd N: no embedding note


def test_synth_is_byte_deterministic(tmp_path):
    a = synth_dir(tmp_path, "a")
    b = synth_dir(tmp_path, "b")
    for name in ("model.json", "signal.csv", "mask.json", "observed.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_even_n_emits_embedding_note(tmp_path):
    out = synth_dir(tmp_path, "even", N=16, M=12)
    meta = json.loads((out / "model.json").read_text())["meta"]
    assert "17" in meta["note"]


def test_solve_full_observation_succeeds(tmp_path, capsys):
    out = synth_dir(tmp_path, N=33, M=33)
    sol = tmp_path / "sol"
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--ground-truth", out / "signal.csv", "--model", out / "model.json",
                   "--freqs", "--out", sol)
    assert code == EXIT_OK
    report = json.loads((sol / "report.json").read_text())
    assert report["converged"] is True
    assert report["nmse"] <= 1e-6
    assert report["method"] == "mhtgd"
    freqs = json.loads((sol / "freqs.json").read_text())
    assert len(freqs) == 2
    printed = capsys.readouterr().out
    assert "max wrap error" in printed
    assert "nmse" in printed


def test_solve_chtgd_on_ca_instance(tmp_path):
    out = synth_dir(tmp_path, N=33, M=33, extra=("--ca",))
    sol = tmp_path / "sol"
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--method", "chtgd", "--ground-truth", out / "signal.csv",
                   "--out", sol)
    assert code == EXIT_OK
    assert json.loads((sol / "report.json").read_text())["nmse"] <= 1e-6


def test_solve_respects_solver_flags(tmp_path):
    out = synth_dir(tmp_path, N=33, M=33)
    sol = tmp_path / "sol"
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--max-iter", 2, "--tol", "1e-14", "--out", sol)
    assert code == EXIT_OK
    assert json.loads((sol / "report.json").read_text())["iterations"] == 2


def test_solve_freqs_on_diverged_solve_is_numerical_error(tmp_path, monkeypatch, capsys):
    def diverged(*args, **kwargs):
        report = solve_mhtgd(*args, **kwargs)
        x_hat = report.x_hat.copy()
        x_hat[3, 0] = np.nan
        return dataclasses.replace(report, x_hat=x_hat)

    monkeypatch.setattr("htgd.experiments.solve_mhtgd", diverged)
    out = synth_dir(tmp_path, N=33, M=33)
    sol = tmp_path / "sol"
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--freqs", "--out", sol)
    assert code == EXIT_NUMERICAL
    assert not (sol / "freqs.json").exists()
    assert "NaN or inf" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error, with no numpy warning first
def test_solve_non_finite_observed_sample_is_numerical_error(tmp_path, capsys):
    out = synth_dir(tmp_path)
    mask = hio.read_mask_json(out / "mask.json")
    data = hio.read_signal_csv(out / "observed.csv")
    data[mask.indices[0] - 1, 0] = np.inf
    hio.write_signal_csv(out / "observed.csv", data)
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--out", tmp_path / "sol")
    assert code == EXIT_NUMERICAL
    assert "NaN or inf" in capsys.readouterr().err


def solve_with_nan_at(tmp_path, observed):
    """``htgd solve`` after writing NaN into one observed (or unobserved) sample."""
    out = synth_dir(tmp_path)
    mask = hio.read_mask_json(out / "mask.json")
    data = hio.read_signal_csv(out / "observed.csv")
    rows = mask.indices - 1 if observed else np.setdiff1d(np.arange(data.shape[0]), mask.indices - 1)
    data[rows[0], 1] = np.nan
    hio.write_signal_csv(out / "observed.csv", data)
    return run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--out", tmp_path / "sol")


def test_solve_ignores_nan_on_an_unobserved_sample(tmp_path):
    assert solve_with_nan_at(tmp_path, observed=False) == EXIT_OK
    assert (tmp_path / "sol" / "report.json").exists()


def test_solve_nan_on_an_observed_sample_is_numerical_error(tmp_path, capsys):
    assert solve_with_nan_at(tmp_path, observed=True) == EXIT_NUMERICAL
    assert "NaN or inf" in capsys.readouterr().err


def test_solve_csv_with_a_missing_row_is_io_error(tmp_path, capsys):
    out = synth_dir(tmp_path)
    lines = (out / "observed.csv").read_text().splitlines()
    (out / "observed.csv").write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--out", tmp_path / "sol")
    assert code == EXIT_IO
    assert "missing" in capsys.readouterr().err


def test_solve_csv_with_a_repeated_row_is_io_error(tmp_path, capsys):
    out = synth_dir(tmp_path)
    with (out / "observed.csv").open("a") as fh:
        fh.write("1,1,9.0,9.0\n")
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--out", tmp_path / "sol")
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"{out / 'observed.csv'}:" in err and "repeated" in err
    assert not (tmp_path / "sol").exists()


def test_solve_nan_tol_is_usage_error(tmp_path, capsys):
    out = synth_dir(tmp_path)
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--tol", "nan", "--max-iter", 50, "--out", tmp_path / "sol")
    assert code == EXIT_USAGE
    assert "tol must be positive" in capsys.readouterr().err
    assert not (tmp_path / "sol").exists()


def test_solve_at_a_tiny_scale_converges(tmp_path, capsys):
    out = synth_dir(tmp_path)
    for name in ("observed.csv", "signal.csv"):
        hio.write_signal_csv(out / name, 1e-160 * hio.read_signal_csv(out / name))
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--ground-truth", out / "signal.csv", "--out", tmp_path / "sol")
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "stop reason: converged" in printed
    assert json.loads((tmp_path / "sol" / "report.json").read_text())["nmse"] <= 1e-6


def test_solve_report_is_strict_json_at_a_huge_scale(tmp_path, capsys):
    # the objective at 1e160 passes the float range: the trace is written as
    # null, never as the bare token Infinity that strict parsers reject
    out = synth_dir(tmp_path)
    for name in ("observed.csv", "signal.csv"):
        hio.write_signal_csv(out / name, 1e160 * hio.read_signal_csv(out / name))
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--ground-truth", out / "signal.csv", "--out", tmp_path / "sol")
    assert code == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((tmp_path / "sol" / "report.json").read_text(),
                        parse_constant=reject)
    assert report["converged"] is True and report["nmse"] <= 1e-6
    assert len(report["objective_trace"]) == report["iterations"] + 1


@pytest.mark.parametrize("kind,content", [
    ("mask", {"N": 33}),
    ("mask", 5),
    ("mask", {"N": 33, "indices": [1, "a"]}),
    ("mask", {"N": 33, "indices": [1.7, 2.2, 3]}),
    ("mask", [True, 2]),
    ("mask", {"N": 33.5, "indices": [1, 2, 3]}),
    ("model", [1, 2]),
], ids=["mask-no-indices", "mask-number", "mask-bad-index", "mask-float-index",
        "mask-bool-index", "mask-float-N", "model-list"])
def test_solve_malformed_mask_or_model_is_io_error(tmp_path, capsys, kind, content):
    out = synth_dir(tmp_path)
    bad = tmp_path / f"bad-{kind}.json"
    bad.write_text(json.dumps(content))
    files = {"mask": out / "mask.json", "model": out / "model.json", kind: bad}
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", files["mask"],
                   "-K", 2, "--freqs", "--model", files["model"], "--out", tmp_path / "sol")
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "sol").exists()  # rejected before the solve wrote anything


def test_solve_model_with_a_string_is_ca_is_io_error(tmp_path, capsys):
    # "is_ca": "false" is no JSON bool; read with bool() it loaded as true
    out = synth_dir(tmp_path)
    model = json.loads((out / "model.json").read_text())
    model["is_ca"] = "false"
    bad = tmp_path / "bad-model.json"
    bad.write_text(json.dumps(model))
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 2, "--freqs", "--model", bad, "--out", tmp_path / "sol")
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "is_ca" in err
    assert not (tmp_path / "sol").exists()


def test_solve_has_no_step_size_flags(tmp_path):
    out = synth_dir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                "-K", 2, "--step0", 1)
    assert exc.value.code == EXIT_USAGE


def test_solve_unknown_method_is_usage_error(tmp_path):
    out = synth_dir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                "-K", 2, "--method", "newton")
    assert exc.value.code == EXIT_USAGE


def test_solve_missing_file_is_io_error(tmp_path, capsys):
    out = synth_dir(tmp_path)
    code = run_cli("solve", "--observed", tmp_path / "nope.csv", "--mask", out / "mask.json", "-K", 2)
    assert code == EXIT_IO


def test_solve_malformed_csv_is_io_error(tmp_path, capsys):
    out = synth_dir(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,signal\n")
    code = run_cli("solve", "--observed", bad, "--mask", out / "mask.json", "-K", 2)
    assert code == EXIT_IO


def test_solve_mismatched_mask_is_usage_error(tmp_path, capsys):
    out = synth_dir(tmp_path, N=33)
    other = synth_dir(tmp_path, "o", N=17, M=10, seed=6)
    code = run_cli("solve", "--observed", out / "observed.csv",
                   "--mask", other / "mask.json", "-K", 2)
    assert code == EXIT_USAGE


def test_solve_freqs_with_k_too_large_for_esprit_is_usage_error(tmp_path, capsys):
    # even N = 34 admits K = 17 < n = 18, but ESPRIT on the odd prefix of 33
    # samples needs K < 17: refused before the solve writes anything
    out = synth_dir(tmp_path, N=34, M=30)
    sol = tmp_path / "sol"
    code = run_cli("solve", "--observed", out / "observed.csv", "--mask", out / "mask.json",
                   "-K", 17, "--freqs", "--out", sol)
    assert code == EXIT_USAGE
    assert "K < 17" in capsys.readouterr().err
    assert not sol.exists()


def test_solve_model_without_freqs_is_usage_error(tmp_path, capsys):
    # refused before any input is read: the missing observed file is never opened
    out = synth_dir(tmp_path)
    sol = tmp_path / "sol"
    code = run_cli("solve", "--observed", tmp_path / "missing.csv", "--mask", out / "mask.json",
                   "-K", 2, "--model", out / "model.json", "--out", sol)
    assert code == EXIT_USAGE
    assert "--freqs" in capsys.readouterr().err
    assert not sol.exists()


def test_experiment_phase_single_cell(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": 33, "L": 2, "m_values": [33], "k_values": [1],
                                "trials": 2, "seed": 9}))
    csv = tmp_path / "phase.csv"
    code = run_cli("experiment", "phase", "--spec", spec, "--out", csv)
    assert code == EXIT_OK
    assert csv.exists() and csv.with_suffix(".gp").exists()
    assert "rate=1.000" in capsys.readouterr().out


def test_experiment_timing_single_size(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_values": [63], "L": 2, "K": 2, "trials": 1, "seed": 2}))
    csv = tmp_path / "timing.csv"
    code = run_cli("experiment", "timing", "--spec", spec, "--out", csv)
    assert code == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[2].startswith("N,M,")
    assert "slope" not in capsys.readouterr().out  # single size: no fit


def test_experiment_out_creates_missing_directories(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": 33, "L": 2, "m_values": [33], "k_values": [1],
                                "trials": 1, "seed": 9}))
    csv = tmp_path / "new" / "p.csv"
    assert run_cli("experiment", "phase", "--spec", spec, "--out", csv) == EXIT_OK
    assert csv.exists() and csv.with_suffix(".gp").exists()
    assert str(csv) in capsys.readouterr().out


def test_experiment_unwritable_out_fails_before_any_trial(tmp_path, monkeypatch, capsys):
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("no trial should run")

    monkeypatch.setattr("htgd.experiments.solve_mhtgd", solve)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_values": [63], "L": 2, "K": 2, "trials": 1}))
    (tmp_path / "file").write_text("")  # a file where the CSV's directory would go
    code = run_cli("experiment", "timing", "--spec", spec, "--out", tmp_path / "file" / "t.csv")
    assert code == EXIT_IO
    assert calls == []
    assert "file" in capsys.readouterr().err


def test_experiment_malformed_spec_reports_line(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{\n  broken\n}")
    code = run_cli("experiment", "phase", "--spec", spec, "--out", tmp_path / "x.csv")
    assert code == EXIT_USAGE
    assert ":2:" in capsys.readouterr().err  # line-level position


def test_experiment_unknown_spec_field(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bogus": 1}))
    code = run_cli("experiment", "phase", "--spec", spec, "--out", tmp_path / "x.csv")
    assert code == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_experiment_invalid_spec_values(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": 33, "m_values": [99], "k_values": [1]}))
    code = run_cli("experiment", "phase", "--spec", spec, "--out", tmp_path / "new" / "x.csv")
    assert code == EXIT_USAGE
    assert not (tmp_path / "new").exists()  # a spec that fails to load creates nothing


@pytest.mark.parametrize("kind,spec,field", [
    ("phase", {"is_ca": "false"}, "is_ca"),
    ("phase", {"is_ca": 0}, "is_ca"),
    ("phase", {"min_sep_mult": True}, "min_sep_mult"),
    ("timing", {"min_sep_mult": True}, "min_sep_mult"),
    ("timing", {"time_cap": True}, "time_cap")])
def test_experiment_non_bool_flag_or_bool_number_is_usage_error(tmp_path, capsys, kind, spec,
                                                                field):
    # a JSON string or number is no is_ca flag, and true is no float
    base = ({"N": 33, "L": 2, "m_values": [33], "k_values": [1], "trials": 1} if kind == "phase"
            else {"n_values": [63], "L": 2, "K": 2, "trials": 1})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**base, **spec}))
    code = run_cli("experiment", kind, "--spec", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_USAGE
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("kind,spec", [
    ("phase", {"N": 33, "L": 2, "m_values": [33], "k_values": [1], "trials": 2.5}),
    ("timing", {"n_values": [63], "L": 2, "K": 2, "trials": 2.5})])
def test_experiment_fractional_trials_is_usage_error(tmp_path, capsys, kind, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run_cli("experiment", kind, "--spec", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and "trials must be an integer" in err
    assert not (tmp_path / "x.csv").exists()


def test_selftest_passes(capsys):
    assert run_cli("selftest") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") >= 5  # four rows plus the summary line
    assert "FAIL" not in out
