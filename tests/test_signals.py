import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from htgd.errors import GenerationError
from htgd.signals import (
    MultichannelSignal,
    ProblemDims,
    SamplingMask,
    SpectralModel,
    apply_mask,
    random_model,
    sample_mask,
    synthesize,
)


def wrap_dist(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# ---------- dims ----------


def test_dims_odd_and_even():
    d = ProblemDims(N=65, L=5, K=4, M=40)
    assert d.full_N == 65 and d.n == 33
    assert d.p == 40 / 65
    d = ProblemDims(N=4, L=1, K=1, M=2)
    assert d.full_N == 5 and d.n == 3
    assert d.p == 2 / 5


@pytest.mark.parametrize("kw", [
    dict(N=65, L=5, K=0, M=40),
    dict(N=65, L=0, K=4, M=40),
    dict(N=65, L=5, K=4, M=0),
    dict(N=65, L=5, K=4, M=66),
    dict(N=65, L=5, K=33, M=40),  # K must stay below n
    dict(N=0, L=1, K=1, M=1),
])
def test_dims_rejects(kw):
    with pytest.raises(ValueError):
        ProblemDims(**kw)


@pytest.mark.parametrize("field,value", [("N", 33.5), ("L", True), ("K", 2.0), ("M", 10.5),
                                         ("N", "33")])
def test_dims_reject_non_integer_sizes_by_name(field, value):
    kw = dict(N=33, L=2, K=2, M=20)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ProblemDims(**kw)


def test_dims_store_plain_ints():
    d = ProblemDims(N=np.int64(33), L=np.int32(2), K=2, M=20)
    assert all(type(v) is int for v in (d.N, d.L, d.K, d.M)) and d.full_N == 33


# ---------- model validation ----------


def test_model_rejects_bad_parameters():
    ok = dict(freqs=[0.1, 0.3], amps=[[1.0], [1.0]], phases=[[0.0], [0.0]])
    SpectralModel(**ok)
    with pytest.raises(ValueError):
        SpectralModel(freqs=[0.1, 0.1], amps=ok["amps"], phases=ok["phases"])
    with pytest.raises(ValueError):
        SpectralModel(freqs=[0.1, 1.0], amps=ok["amps"], phases=ok["phases"])
    with pytest.raises(ValueError):
        SpectralModel(freqs=[0.1, 0.3], amps=[[1.0], [-1.0]], phases=ok["phases"])
    with pytest.raises(ValueError):
        SpectralModel(freqs=[0.1, 0.3], amps=[[1.0, 2.0], [1.0, 1.0]],
                      phases=np.zeros((2, 2)), is_ca=True)


# ---------- synthesis ----------


def test_synthesize_dc_is_ones():
    dims = ProblemDims(N=7, L=1, K=1, M=7)
    model = SpectralModel(freqs=[0.0], amps=[[1.0]], phases=[[0.0]])
    sig = synthesize(model, dims)
    assert_allclose(sig.data, np.ones((7, 1)), atol=1e-15)


def test_synthesize_nyquist_even_request():
    # even N runs on an internal length-5 model; the 4 reported samples alternate
    dims = ProblemDims(N=4, L=1, K=1, M=2)
    model = SpectralModel(freqs=[0.5], amps=[[1.0]], phases=[[0.0]])
    sig = synthesize(model, dims)
    assert sig.data.shape == (4, 1)
    assert_allclose(sig.data[:, 0], [1, -1, 1, -1], atol=1e-12)


def test_synthesize_superposition():
    dims2 = ProblemDims(N=33, L=3, K=2, M=10)
    dims1 = ProblemDims(N=33, L=3, K=1, M=10)
    rng = np.random.default_rng(5)
    f = np.array([0.12, 0.57])
    amps = rng.uniform(0.5, 1.5, (2, 3))
    phases = rng.uniform(0, 2 * np.pi, (2, 3))
    both = synthesize(SpectralModel(freqs=f, amps=amps, phases=phases), dims2)
    parts = [
        synthesize(SpectralModel(freqs=f[k:k + 1], amps=amps[k:k + 1],
                                 phases=phases[k:k + 1]), dims1)
        for k in range(2)
    ]
    assert_allclose(both.data, parts[0].data + parts[1].data, atol=1e-12)


def test_synthesize_checks_model_shape():
    dims = ProblemDims(N=7, L=2, K=1, M=7)
    model = SpectralModel(freqs=[0.0], amps=[[1.0]], phases=[[0.0]])
    with pytest.raises(ValueError):
        synthesize(model, dims)


def test_signal_shape_validation():
    dims = ProblemDims(N=7, L=2, K=1, M=7)
    with pytest.raises(ValueError):
        MultichannelSignal(data=np.zeros((7, 3)), dims=dims)


# ---------- random model ----------


def test_random_model_respects_separation():
    dims = ProblemDims(N=65, L=5, K=4, M=40)
    sep = 1.5 / 65
    for seed in range(1000):
        m = random_model(dims, min_sep=sep, seed=seed)
        f = m.freqs
        for a in range(4):
            for b in range(a + 1, 4):
                assert wrap_dist(f[a], f[b]) >= sep


def test_random_model_ca_rows_constant():
    dims = ProblemDims(N=65, L=5, K=3, M=40)
    m = random_model(dims, min_sep=0.02, is_ca=True, seed=11)
    assert m.is_ca
    assert np.all(m.amps == m.amps[:, :1])
    # phases still vary per channel
    assert not np.all(m.phases == m.phases[:, :1])


def test_random_model_deterministic():
    dims = ProblemDims(N=65, L=2, K=3, M=40)
    a = random_model(dims, min_sep=0.02, seed=42)
    b = random_model(dims, min_sep=0.02, seed=42)
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.amps, b.amps)
    assert np.array_equal(a.phases, b.phases)
    c = random_model(dims, min_sep=0.02, seed=43)
    assert not np.array_equal(a.freqs, c.freqs)


def test_random_model_infeasible_separation():
    dims = ProblemDims(N=65, L=1, K=4, M=40)
    with pytest.raises(ValueError):
        random_model(dims, min_sep=0.3, seed=0)


def test_random_model_rejects_nan_separation_up_front():
    dims = ProblemDims(N=65, L=1, K=2, M=40)
    with pytest.raises(ValueError, match="min_sep must be nonnegative"):
        random_model(dims, min_sep=np.nan, seed=0)


def test_random_model_exhausts_budget():
    # at K = 2 a draw is admissible with probability 1 - 2 min_sep = 2e-9
    dims = ProblemDims(N=65, L=1, K=2, M=40)
    with pytest.raises(GenerationError):
        random_model(dims, min_sep=0.5 - 1e-9, seed=0)


def test_random_model_bound_is_strict_for_pairs_only():
    # K * min_sep == 1 is admissible only on a measure-zero set, so it is refused up front
    with pytest.raises(ValueError, match="cannot place K=2"):
        random_model(ProblemDims(N=65, L=1, K=2, M=40), min_sep=0.5, seed=0)
    # a single frequency has no pairs to separate
    assert random_model(ProblemDims(N=9, L=1, K=1, M=5), min_sep=2.0, seed=0).K == 1


def test_random_model_single_frequency():
    dims = ProblemDims(N=9, L=1, K=1, M=5)
    m = random_model(dims, min_sep=0.9, seed=3)
    assert m.freqs.shape == (1,)


# ---------- masks ----------


def test_sample_mask_full_observation():
    dims = ProblemDims(N=9, L=1, K=1, M=9)
    mask = sample_mask(dims, seed=0)
    assert mask.indices.tolist() == list(range(1, 10))


def test_sample_mask_singleton():
    dims = ProblemDims(N=9, L=1, K=1, M=1)
    mask = sample_mask(dims, seed=1)
    assert mask.M == 1 and 1 <= mask.indices[0] <= 9


def test_sample_mask_never_hits_padding():
    dims = ProblemDims(N=10, L=1, K=1, M=10)
    mask = sample_mask(dims, seed=0)
    assert mask.indices.max() == 10  # index 11 (the embedding row) unreachable
    assert mask.bool_array(dims.full_N).tolist()[-1] is False


def test_sample_mask_uniformity():
    dims = ProblemDims(N=10, L=1, K=1, M=5)
    hits = np.zeros(10)
    draws = 10_000
    for seed in range(draws):
        hits[sample_mask(dims, seed=seed).indices - 1] += 1
    rate = hits / draws
    assert np.all(np.abs(rate - 0.5) <= 0.02)


def test_mask_validation():
    with pytest.raises(ValueError):
        SamplingMask(indices=np.array([0, 2]), N=5)
    with pytest.raises(ValueError):
        SamplingMask(indices=np.array([2, 2]), N=5)
    with pytest.raises(ValueError):
        SamplingMask(indices=np.array([6]), N=5)


# ---------- projection ----------


def test_apply_mask_example():
    dims = ProblemDims(N=3, L=1, K=1, M=2)
    sig = MultichannelSignal(data=np.array([[1.0], [2.0], [3.0]], dtype=complex), dims=dims)
    mask = SamplingMask(indices=np.array([1, 3]), N=3)
    out = apply_mask(sig, mask)
    assert_allclose(out.data[:, 0], [1.0, 0.0, 3.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_apply_mask_idempotent_and_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    N, L = 11, 2
    dims = ProblemDims(N=N, L=L, K=2, M=int(rng.integers(1, N + 1)))
    mask = sample_mask(dims, seed=seed)
    x = MultichannelSignal(data=rng.standard_normal((N, L)) + 1j * rng.standard_normal((N, L)), dims=dims)
    y = MultichannelSignal(data=rng.standard_normal((N, L)) + 1j * rng.standard_normal((N, L)), dims=dims)
    px = apply_mask(x, mask)
    assert np.array_equal(apply_mask(px, mask).data, px.data)
    lhs = np.vdot(px.data, y.data)
    rhs = np.vdot(x.data, apply_mask(y, mask).data)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
