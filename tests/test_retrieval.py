from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htgd.operators as ops
from htgd.errors import NumericalError, RankDeficientError
from htgd.retrieval import _RANK_RTOL, esprit, match_frequencies, nmse, wrap_distance
from htgd.signals import ProblemDims, make_rng, random_model, synthesize


def sinusoids(N, freqs, coefs):
    return np.exp(-2j * np.pi * np.outer(np.arange(N), np.asarray(freqs))) @ np.asarray(coefs)


def dense_esprit(x, K):
    """Reference ESPRIT: full SVD of the dense n x nL matrix [H x_1, ..., H x_L]."""
    data = np.asarray(x, dtype=complex)
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[0] % 2 == 0:
        data = data[:-1]
    E = np.concatenate([ops.hankel_lift(data[:, l]) for l in range(data.shape[1])], axis=1)
    U, s, _ = np.linalg.svd(E, full_matrices=False)
    if s[0] == 0.0 or s[K - 1] / s[0] < _RANK_RTOL:
        raise RankDeficientError(f"lifted signal has numerical rank below K={K}")
    Us = U[:, :K]
    Psi, *_ = np.linalg.lstsq(Us[:-1], Us[1:], rcond=None)
    lam = np.linalg.eigvals(Psi)
    return np.sort(np.mod(-np.angle(lam) / (2.0 * np.pi), 1.0))


def draw_case(data):
    """Odd or even N >= 3, L in 1..4 and 1 <= K < n, where n counts the odd prefix."""
    N = data.draw(st.integers(3, 48), label="N")
    n = (N - (N + 1) % 2 + 1) // 2
    L = data.draw(st.integers(1, 4), label="L")
    K = data.draw(st.integers(1, n - 1), label="K")
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return N, L, K, rng


def spread_tones(rng, N, L, K):
    """K tones about 1/K apart with amplitudes in [0.5, 1.5] on every channel."""
    freqs = (rng.uniform(0, 1) + (np.arange(K) + rng.uniform(-0.1, 0.1, K)) / K) % 1.0
    coefs = rng.uniform(0.5, 1.5, (K, L)) * np.exp(2j * np.pi * rng.uniform(0, 1, (K, L)))
    return sinusoids(N, freqs, coefs), freqs


def test_single_sinusoid_exact():
    est = esprit(sinusoids(21, [0.3], [[1.0]]), K=1)
    assert est.freqs.shape == (1,)
    assert wrap_distance(est.freqs[0], 0.3) < 1e-10


def test_multichannel_three_tones():
    freqs = [0.11, 0.42, 0.73]
    rng = make_rng(8)
    coefs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    est = esprit(sinusoids(25, freqs, coefs), K=3)
    _, err = match_frequencies(est.freqs, freqs)
    assert err < 1e-9


def test_even_length_drops_last_sample():
    freqs = [0.2, 0.55]
    x = sinusoids(22, freqs, [[1.0], [0.7]])
    est = esprit(x, K=2)
    _, err = match_frequencies(est.freqs, freqs)
    assert err < 1e-9


def test_scaling_invariance():
    x = sinusoids(19, [0.25, 0.6], [[1.0], [1.0]])
    a = esprit(x, K=2).freqs
    b = esprit(1e6 * np.exp(0.3j) * x, K=2).freqs
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_zero_signal_raises_rank_deficient():
    with pytest.raises(RankDeficientError):
        esprit(np.zeros((15, 2), dtype=complex), K=1)


def test_undersized_rank_raises_rank_deficient():
    x = sinusoids(21, [0.3], [[1.0]])  # true rank 1
    with pytest.raises(RankDeficientError):
        esprit(x, K=3)


def test_non_finite_input_raises_numerical_error():
    x = sinusoids(21, [0.3], [[1.0]])
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        y = x.copy()
        y[4] = bad
        with pytest.raises(NumericalError, match="NaN or inf"):
            esprit(y, K=1)


def test_fixed_seed_is_deterministic():
    rng = make_rng(12)
    x, _ = spread_tones(rng, 301, 3, 5)
    x = x + 1e-2 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    np.testing.assert_array_equal(esprit(x, K=5).freqs, esprit(x.copy(), K=5).freqs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fast_esprit_matches_dense_oracle(data):
    N, L, K, rng = draw_case(data)
    x, freqs = spread_tones(rng, N, L, K)
    noise = data.draw(st.sampled_from([0.0, 1e-3, 1e-2]), label="noise")
    x = x + noise * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    fast = esprit(x, K).freqs
    _, err = match_frequencies(fast, dense_esprit(x, K))
    assert err <= 1e-10
    if noise == 0.0:
        _, err = match_frequencies(fast, freqs)
        assert err <= 1e-8


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fast_and_dense_esprit_agree_on_rank_deficiency(data):
    N, L, K, rng = draw_case(data)
    K_true = data.draw(st.integers(0, K - 1), label="K_true")  # 0 gives all zeros
    x = spread_tones(rng, N, L, K_true)[0] if K_true else np.zeros((N, L), dtype=complex)
    with pytest.raises(RankDeficientError):
        dense_esprit(x, K)
    with pytest.raises(RankDeficientError):
        esprit(x, K)


def test_k_out_of_range():
    x = sinusoids(9, [0.3], [[1.0]])
    with pytest.raises(ValueError):
        esprit(x, K=0)
    with pytest.raises(ValueError):
        esprit(x, K=5)  # n = 5 needs K < 5
    for K in (2.5, True, "1"):  # a bool is no model order
        with pytest.raises(ValueError, match="K must be an integer"):
            esprit(x, K=K)


def test_wrap_distance_crosses_zero():
    assert wrap_distance(0.99, 0.01) == pytest.approx(0.02)
    assert wrap_distance(0.01, 0.99) == pytest.approx(0.02)
    assert wrap_distance(0.5, 0.5) == 0.0
    assert wrap_distance(0.0, 0.5) == pytest.approx(0.5)


def test_match_identity():
    ref = np.array([0.1, 0.4, 0.8])
    pairing, err = match_frequencies(ref, ref)
    assert tuple(pairing) == (0, 1, 2)
    assert err == 0.0


def test_match_handles_permutation_and_wrap():
    ref = np.array([0.02, 0.5, 0.98])
    est = np.array([0.99, 0.015, 0.51])
    pairing, err = match_frequencies(est, ref)
    assert tuple(pairing) == (2, 0, 1)
    assert err == pytest.approx(0.01)


def test_match_large_k_greedy_agrees_on_shuffle():
    rng = make_rng(3)
    ref = np.sort(rng.uniform(0, 1, 12))
    est = rng.permutation(ref + rng.uniform(-1e-4, 1e-4, 12)) % 1.0
    _, err = match_frequencies(est, ref)
    assert err <= 2e-4


def test_match_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        match_frequencies([0.1], [0.1, 0.2])


def bruteforce_bottleneck(est, ref):
    """Oracle: the least worst wrap distance over all K! pairings."""
    return min(float(np.max(wrap_distance(est, ref[list(p)])))
               for p in permutations(range(len(ref))))


# uniform values, a 1/16 grid (exact ties, duplicates across the lists) and
# values near 0 and 1, whose best partners lie across the wrap
frequency = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                      st.integers(0, 15).map(lambda i: i / 16),
                      st.floats(0.0, 0.03), st.floats(0.97, 1.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda K: st.tuples(st.lists(frequency, min_size=K, max_size=K),
                                                     st.lists(frequency, min_size=K, max_size=K))))
def test_match_is_optimal_vs_bruteforce(lists):
    est, ref = (np.asarray(v) for v in lists)
    pairing, err = match_frequencies(est, ref)
    assert sorted(pairing) == list(range(len(ref)))
    assert err == float(np.max(wrap_distance(est, ref[list(pairing)])))
    assert err == bruteforce_bottleneck(est, ref)


def test_round_trip_model_to_frequencies():
    dims = ProblemDims(N=41, L=3, K=4, M=41)
    model = random_model(dims, min_sep=0.08, seed=97)
    sig = synthesize(model, dims)
    est = esprit(sig, K=dims.K)
    _, err = match_frequencies(est.freqs, model.freqs)
    assert err <= 1e-8


def test_nmse_basics():
    a = np.ones((4, 2), dtype=complex)
    assert nmse(a, a) == 0.0
    assert nmse(2 * a, a) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nmse(a, np.zeros_like(a))
    with pytest.raises(ValueError):
        nmse(a, np.ones((3, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [600, -600])
def test_nmse_is_scale_free(k):
    # the squared norms at 2**600 overflow and at 2**-600 underflow
    rng = np.random.default_rng(4)
    b = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    a = b + 1e-3 * rng.standard_normal((9, 3))
    assert nmse(ops.ldexp(a, k), ops.ldexp(b, k)) == nmse(a, b)
