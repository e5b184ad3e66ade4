import json

import numpy as np
import pytest

from htgd import io as hio
from htgd.descent import SolverReport
from htgd.signals import (
    MultichannelSignal,
    ProblemDims,
    SamplingMask,
    SpectralModel,
    make_rng,
    random_model,
    synthesize,
)


def test_signal_csv_round_trip(tmp_path):
    rng = make_rng(1)
    data = rng.standard_normal((7, 3)) * 1e-8 + 1j * rng.standard_normal((7, 3)) * 1e6
    path = hio.write_signal_csv(tmp_path / "x.csv", data)
    back = hio.read_signal_csv(path)
    np.testing.assert_array_equal(back, data)  # repr round-trips floats exactly
    header = path.read_text().splitlines()[0]
    assert header == "j,channel,re,im"


def test_signal_csv_accepts_signal_object(tmp_path):
    dims = ProblemDims(N=9, L=2, K=1, M=9)
    sig = synthesize(random_model(dims, seed=3), dims)
    path = hio.write_signal_csv(tmp_path / "s.csv", sig)
    np.testing.assert_array_equal(hio.read_signal_csv(path), sig.data)


def test_signal_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c,d\n1,1,0,0\n")
    with pytest.raises(ValueError, match="header"):
        hio.read_signal_csv(p)


def test_signal_csv_rejects_missing_rows(tmp_path):
    p = tmp_path / "hole.csv"
    p.write_text("j,channel,re,im\n1,1,0.0,0.0\n2,2,1.0,0.0\n")
    with pytest.raises(ValueError, match="missing"):
        hio.read_signal_csv(p)


def test_signal_csv_keeps_nan_and_inf_values(tmp_path):
    # a non-finite sample is a value for the solver to judge, not a missing row
    data = np.array([[1.0 + 2.0j, np.nan], [complex(np.nan, np.nan), complex(1.0, np.inf)]])
    back = hio.read_signal_csv(hio.write_signal_csv(tmp_path / "x.csv", data))
    np.testing.assert_array_equal(back, data)
    assert back[1, 1] == complex(1.0, np.inf)


def test_signal_csv_rejects_missing_row_next_to_nan(tmp_path):
    p = tmp_path / "hole.csv"
    p.write_text("j,channel,re,im\n1,1,nan,0.0\n1,2,0.0,0.0\n2,2,nan,nan\n")
    with pytest.raises(ValueError, match="missing"):
        hio.read_signal_csv(p)


@pytest.mark.parametrize("row,why", [("2,1,0.0", "not enough values"),
                                     ("2.5,1,0.0,0.0", "invalid literal"),
                                     ("1,1,9.0,9.0", "repeated")])
def test_signal_csv_names_file_and_line_of_a_bad_row(tmp_path, row, why):
    # a repeated (sample, channel) row is an error, never a silent overwrite
    p = tmp_path / "bad.csv"
    p.write_text(f"j,channel,re,im\n1,1,0.0,0.0\n{row}\n2,1,1.0,0.0\n")
    with pytest.raises(ValueError, match=why) as info:
        hio.read_signal_csv(p)
    assert str(info.value).startswith(f"{p}:3: ")


def test_signal_csv_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("j,channel,re,im\n")
    with pytest.raises(ValueError, match="no data"):
        hio.read_signal_csv(p)


def test_mask_json_round_trip(tmp_path):
    mask = SamplingMask(indices=np.array([1, 4, 9]), N=9)
    path = hio.write_mask_json(tmp_path / "m.json", mask)
    back = hio.read_mask_json(path)
    assert back.N == 9
    np.testing.assert_array_equal(back.indices, mask.indices)


def test_mask_json_accepts_bare_array(tmp_path):
    p = tmp_path / "bare.json"
    p.write_text("[2, 5, 7]\n")
    mask = hio.read_mask_json(p)
    assert mask.N == 7 and mask.M == 3


def test_model_json_round_trip(tmp_path):
    dims = ProblemDims(N=15, L=3, K=2, M=10)
    model = random_model(dims, min_sep=0.1, is_ca=True, seed=5)
    path = hio.write_model_json(tmp_path / "model.json", model, meta={"seed": 5})
    back = hio.read_model_json(path)
    np.testing.assert_allclose(back.freqs, model.freqs)
    np.testing.assert_allclose(back.amps, model.amps)
    np.testing.assert_allclose(back.phases, model.phases)
    assert back.is_ca
    assert json.loads(path.read_text())["meta"]["seed"] == 5


def test_model_json_zero_frequency_single_tone(tmp_path):
    model = SpectralModel(freqs=np.array([0.0]), amps=np.ones((1, 2)),
                          phases=np.zeros((1, 2)))
    path = hio.write_model_json(tmp_path / "m.json", model)
    back = hio.read_model_json(path)
    assert back.freqs[0] == 0.0 and back.K == 1 and back.L == 2


def test_model_json_missing_field(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"freqs": [0.1], "amps": [[1.0]]}))
    with pytest.raises(ValueError, match="phases"):
        hio.read_model_json(p)


def test_report_json_contents(tmp_path):
    report = SolverReport(x_hat=np.zeros((3, 1), dtype=complex), iterations=4,
                          stop_reason="converged", objective_trace=[2.0, 1.0],
                          iter_seconds=[0.1], total_seconds=0.5, nmse=1e-9)
    path = hio.write_report_json(tmp_path / "r.json", report, method="mhtgd")
    payload = json.loads(path.read_text())
    assert payload["iterations"] == 4
    assert payload["stop_reason"] == "converged"
    assert payload["converged"] is True
    assert payload["objective_trace"] == [2.0, 1.0]
    assert payload["method"] == "mhtgd"
    assert payload["nmse"] == 1e-9


def test_freqs_json_is_bare_array(tmp_path):
    path = hio.write_freqs_json(tmp_path / "f.json", np.array([0.25, 0.5]))
    assert json.loads(path.read_text()) == [0.25, 0.5]
