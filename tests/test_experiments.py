import numpy as np
import pytest

from htgd.experiments import (
    PhaseGridSpec,
    TimingSpec,
    run_phase_grid,
    run_timing,
)


def small_phase_spec(**overrides):
    base = dict(N=33, L=2, m_values=(33,), k_values=(1,), trials=3, seed=9)
    base.update(overrides)
    return PhaseGridSpec(**base)


def test_phase_spec_validation():
    with pytest.raises(ValueError, match="method"):
        small_phase_spec(method="newton")
    with pytest.raises(ValueError, match="trials"):
        small_phase_spec(trials=0)
    with pytest.raises(ValueError, match="K must be"):
        small_phase_spec(k_values=(17,))  # n = 17 for N = 33
    with pytest.raises(ValueError, match="M must lie"):
        small_phase_spec(m_values=(34,))
    with pytest.raises(ValueError, match="nonempty"):
        small_phase_spec(m_values=())
    # values with which every trial, or the scan itself, would fail
    for bad, field in [(dict(trials=2.5), "trials"), (dict(trials=True), "trials"),
                       (dict(N=33.5), "N must"), (dict(L=2.0), "L must"), (dict(seed=-1), "seed"),
                       (dict(m_values=(30.7,)), "m_values"), (dict(k_values=(1.5,)), "k_values"),
                       (dict(min_sep_mult=-1), "min_sep_mult"),
                       (dict(min_sep_mult=float("nan")), "min_sep_mult"),
                       (dict(min_sep_mult=20, k_values=(2,)), "min_sep_mult"),
                       # random_model's bound K * mult == N: no draw is admissible
                       (dict(min_sep_mult=16.5, k_values=(2,)), "min_sep_mult")]:
        with pytest.raises(ValueError, match=field):
            small_phase_spec(**bad)
    small_phase_spec(min_sep_mult=16.4, k_values=(2,))
    small_phase_spec(min_sep_mult=40, k_values=(1,))  # one frequency has no pairs


def test_timing_spec_validation():
    with pytest.raises(ValueError, match="time_cap"):
        TimingSpec(n_values=(63,), time_cap=0.0)
    with pytest.raises(ValueError, match="nonempty"):
        TimingSpec(n_values=())
    with pytest.raises(ValueError, match="trials"):
        TimingSpec(n_values=(63,), trials=0)
    for bad, field in [(dict(time_cap=float("nan")), "time_cap"), (dict(trials=2.5), "trials"),
                       (dict(n_values=(63.5,)), "n_values"), (dict(K=3.0), "K must"),
                       (dict(min_sep_mult=float("nan")), "min_sep_mult"),
                       (dict(min_sep_mult=30), "min_sep_mult"),
                       (dict(n_values=(5, 63), K=3), "K=3 too large for N=5")]:
        with pytest.raises(ValueError, match=field):
            TimingSpec(**{"n_values": (63,), **bad})
    assert TimingSpec().m_for(4095) == 3276
    assert TimingSpec().m_for(255) == 204


def test_phase_grid_easy_cell_and_determinism(tmp_path):
    spec = small_phase_spec()
    a = run_phase_grid(spec, csv_path=tmp_path / "a.csv")
    b = run_phase_grid(spec, csv_path=tmp_path / "b.csv")
    assert a.rate(33, 1) == 1.0
    assert a.success_vector() == b.success_vector()
    # byte-identical except the timestamp header line
    la = (tmp_path / "a.csv").read_text().splitlines()
    lb = (tmp_path / "b.csv").read_text().splitlines()
    assert la[0].startswith("# generated:") and lb[0].startswith("# generated:")
    assert la[1:] == lb[1:]
    assert la[2] == "M,K,trials,successes,rate"
    assert la[3] == "33,1,3,3,1"
    assert (tmp_path / "a.gp").exists()
    assert "a.csv" in (tmp_path / "a.gp").read_text()


def test_phase_grid_cells_are_isolated():
    # adding a cell must not perturb the draws of an existing one
    lone = run_phase_grid(small_phase_spec(m_values=(20,), k_values=(2,), trials=4))
    grid = run_phase_grid(small_phase_spec(m_values=(33, 20), k_values=(1, 2), trials=4))
    lone_cell = lone.success_vector()[0]
    matching = [c for c in grid.success_vector() if c[:2] == (20, 2)]
    assert matching == [lone_cell]


def test_phase_grid_hard_cell_records_failures():
    spec = small_phase_spec(m_values=(3,), k_values=(4,), trials=2)
    res = run_phase_grid(spec)
    cell = res.cells[0]
    assert cell.successes < cell.trials  # 3 samples cannot pin 4 sinusoids
    assert len(cell.failure_reasons) == cell.trials - cell.successes
    for trial, reason in cell.failure_reasons:
        assert isinstance(reason, str) and reason


def test_a_raising_trial_fails_alone(monkeypatch):
    # the scans call the solver through the module global, so a double here is seen
    from htgd import experiments

    real, calls = experiments.solve_mhtgd, []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_mhtgd", flaky)
    cell = run_phase_grid(small_phase_spec()).cells[0]
    assert cell.outcomes == [True, False, True]
    assert cell.failure_reasons == [(1, "RuntimeError: boom")]
    calls.clear()
    row = run_timing(TimingSpec(n_values=(63,), L=2, K=2, trials=3, seed=3)).rows[0]
    assert (row.successes, row.excluded) == (2, 0)  # neither a success nor excluded


def test_phase_grid_rate_lookup():
    res = run_phase_grid(small_phase_spec())
    assert res.rate(33, 1) == 1.0
    with pytest.raises(KeyError):
        res.rate(5, 5)


def test_timing_single_size_has_no_slope(tmp_path):
    spec = TimingSpec(n_values=(63,), L=2, K=2, trials=2, seed=3)
    res = run_timing(spec, csv_path=tmp_path / "t.csv")
    assert res.slope is None
    row = res.rows[0]
    assert row.successes == 2 and row.excluded == 0
    assert row.median_iter_seconds > 0
    text = (tmp_path / "t.csv").read_text()
    assert "loglog_slope" not in text
    assert text.splitlines()[2] == (
        "N,M,trials,successes,excluded,median_total_seconds,median_iter_seconds")
    assert (tmp_path / "t.gp").exists()


def test_timing_two_sizes_fit_slope():
    spec = TimingSpec(n_values=(63, 127), L=2, K=2, trials=2, seed=3)
    res = run_timing(spec)
    assert res.slope is not None and np.isfinite(res.slope)


def test_timing_cap_excludes_everything(tmp_path):
    spec = TimingSpec(n_values=(63,), L=2, K=2, trials=2, time_cap=1e-9, seed=3)
    res = run_timing(spec, csv_path=tmp_path / "t.csv")
    row = res.rows[0]
    assert row.excluded == 2
    assert row.successes == 0
    assert row.median_total_seconds is None and row.median_iter_seconds is None
    assert res.slope is None
    line = (tmp_path / "t.csv").read_text().splitlines()[3]
    assert line == "63,50,2,0,2,,"


def test_timing_chtgd_runs():
    res = run_timing(TimingSpec(n_values=(63,), L=2, K=2, trials=1, method="chtgd", seed=4))
    assert res.rows[0].successes == 1


# ---------- golden outputs: the CSV and gnuplot bytes of both scans ----------

PHASE_CSV_AFTER_TIMESTAMP = """\
# spec: {"L": 2, "N": 33, "is_ca": false, "k_values": [1, 4], "m_values": [33, 3], \
"method": "mhtgd", "min_sep_mult": 1.5, "seed": 9, "trials": 3}
M,K,trials,successes,rate
33,1,3,3,1
33,4,3,3,1
3,1,3,1,0.333333
3,4,3,0,0
"""

PHASE_GP = """\
set datafile separator comma
set datafile commentschars '#'
set title 'success rate: grid.csv'
set xlabel 'K'
set ylabel 'M'
set cbrange [0:1]
set view map
splot 'grid.csv' using 2:1:5 with points pt 5 ps 3 palette notitle
"""

TIMING_GP = """\
set datafile separator comma
set datafile commentschars '#'
set title 'median per-iteration time: scan.csv'
set xlabel 'N'
set ylabel 'seconds per iteration'
set logscale xy
plot 'scan.csv' using 1:7 with linespoints pt 7 notitle
"""

TIMING_HEADER = "N,M,trials,successes,excluded,median_total_seconds,median_iter_seconds"


def test_phase_outputs_are_golden(tmp_path):
    res = run_phase_grid(small_phase_spec(m_values=(33, 3), k_values=(1, 4)),
                         csv_path=tmp_path / "grid.csv")
    assert res.csv_path == tmp_path / "grid.csv"
    first, rest = (tmp_path / "grid.csv").read_text().split("\n", 1)
    assert first.startswith("# generated: ")
    assert rest == PHASE_CSV_AFTER_TIMESTAMP
    assert (tmp_path / "grid.gp").read_text() == PHASE_GP


@pytest.mark.parametrize("n_values,time_cap", [((63, 127), 100.0), ((63, 127), 1e-9),
                                               ((63,), 100.0)])
def test_timing_outputs_are_golden(tmp_path, n_values, time_cap):
    spec = TimingSpec(n_values=n_values, L=2, K=2, trials=2, time_cap=time_cap, seed=3)
    res = run_timing(spec, csv_path=tmp_path / "scan.csv")
    assert res.csv_path == tmp_path / "scan.csv"
    lines = (tmp_path / "scan.csv").read_text().split("\n")
    assert lines[0].startswith("# generated: ") and lines[-1] == ""
    assert lines[1] == ("# spec: {\"K\": 2, \"L\": 2, \"method\": \"mhtgd\", \"min_sep_mult\": 1.5, "
                        f"\"n_values\": {list(n_values)}, \"seed\": 3, \"time_cap\": {time_cap!r}, "
                        "\"trials\": 2}")
    assert lines[2] == TIMING_HEADER
    rows = lines[3:3 + len(n_values)]
    for row, N, M in zip(rows, n_values, (50, 101)):
        if time_cap < 1:  # every run excluded: both median cells blank
            assert row == f"{N},{M},2,0,2,,"
        else:
            head, total, per_iter = row.rsplit(",", 2)
            assert head == f"{N},{M},2,2,0"
            assert float(total) > float(per_iter) > 0
            assert f"{float(total):.6g}" == total and f"{float(per_iter):.6g}" == per_iter
    footer = lines[3 + len(n_values):-1]
    if res.slope is None:  # fewer than two sizes with a median
        assert footer == [] and (time_cap < 1 or len(n_values) == 1)
    else:
        assert len(n_values) == 2 and time_cap > 1
        assert footer == [f"# loglog_slope: {res.slope:.4f}"]
    assert (tmp_path / "scan.gp").read_text() == TIMING_GP
