import math
import re
import tracemalloc

import numpy as np
import pytest

from dftstat import (
    ArmaSpec,
    ComputationError,
    CorrectionSpec,
    GeneratorConfig,
    InputError,
    KernelSpec,
    McConfig,
    RngStream,
    chisq_quantile,
    chisq_sf,
    dft_canonical,
    generate,
    lag_scan,
    model_preset,
    power_profile,
    segmented_test,
    stationarity_test,
)
from dftstat import numerics
from dftstat.numerics import _half_dft_rows, _takes_chirp, _unfold
from dftstat.spectral import _smoother
from dftstat.stattest import (
    _correction_denominators,
    _phase_coherence,
    _plan,
    _scan_rows,
    _transfer,
)
from pipeline_oracle import (
    block_covariances,
    full_circle,
    half_of,
    lag_covariances,
    oracle_block_covariances,
    pipeline_input,
    smooth_half,
)


# ---------------------------------------------------------------------------
# standardized covariances
# ---------------------------------------------------------------------------


def half_input(J, f):
    """The covariance kernel's input from a full DFT J and spectrum f (last
    axis k = 1..T): conj(J_k) / sqrt(f_k) at k = 0..T//2, and T."""
    return np.conj(half_of(J)) / np.sqrt(half_of(f)), J.shape[-1]


def smoothed(J):
    """The test's smoothed spectrum of a DFT J (last axis k = 1..T): the half
    smoother's estimate at k = 0..T//2, mirrored onto k = 1..T."""
    T = J.shape[-1]
    f = smooth_half(np.abs(half_of(J)) ** 2, T, _smoother(None, T, 1e-3), 1e-3)
    return full_circle(f, T)


def test_covariance_single_frequency_pair_by_hand():
    # a pure cosine has only two nonzero DFT bins (k = 3 and 13 for T = 16),
    # so with a constant denominator the covariance at lag 10 reduces to one
    # product: c(10) = J_3 * conj(J_13) / 16
    T = 16
    t = np.arange(1, T + 1)
    x = np.cos(2 * np.pi * t * 3 / T)
    j = dft_canonical(x)
    expected = j[3 - 1] * np.conj(j[13 - 1]) / T
    got, cold = lag_covariances(*half_input(j, np.ones(T)), (10, 3))
    assert got == pytest.approx(expected, abs=1e-12)
    # and lags pairing a hot bin with a cold one give zero
    assert abs(cold) < 1e-15


def test_covariance_white_noise_second_moment():
    # real and imaginary parts of sqrt(T) c(r) each have unit variance, so
    # the mean of T|c(1)|^2 is 2
    T = 1024
    vals = []
    for i in range(500):
        x = RngStream(11, i).generator().standard_normal(T)
        x = x - x.mean()
        J = dft_canonical(x)
        vals.append(T * abs(lag_covariances(*half_input(J, smoothed(J)), (1,))[0]) ** 2)
    assert np.mean(vals) == pytest.approx(2.0, abs=0.2)


def test_covariance_modulated_noise_known_mean():
    # X_t = sigma(t/T) e_t with sigma(u) = 1 + 0.5 cos(2 pi u): with the flat
    # denominator f = (integral of sigma^2)/(2 pi) the mean covariance at lag
    # one is the normalized Fourier coefficient 0.5 / 1.125
    T = 512
    u = np.arange(1, T + 1) / T
    scale = 1 + 0.5 * np.cos(2 * np.pi * u)
    f_const = np.full(T, 1.125 / (2 * np.pi))
    acc = 0.0
    for i in range(500):
        x = scale * RngStream(12, i).generator().standard_normal(T)
        acc += lag_covariances(*half_input(dft_canonical(x), f_const), (1,))[0]
    assert abs(acc / 500 - 0.5 / 1.125) < 0.02


def test_covariance_with_supplied_spectrum_matches_estimated():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(128)
    J = dft_canonical(x)
    a = stationarity_test(x, lags=[3], demean=False).covariances[0]
    b = lag_covariances(*half_input(J, smoothed(J)), (3,))[0]
    assert a == pytest.approx(b, abs=1e-14)


def test_covariance_direct_summation_oracle():
    # O(T) loop straight from the definition, flat true spectrum 1/(2 pi)
    T = 64
    rng = np.random.default_rng(9)
    x = rng.standard_normal(T)
    j = dft_canonical(x)
    f = np.full(T, 1 / (2 * np.pi))
    r = 5
    acc = 0.0
    for k in range(1, T + 1):
        jk = j[k - 1]
        jkr = j[(k + r - 1) % T]
        acc += jk * np.conj(jkr) / math.sqrt(f[k - 1] * f[(k + r - 1) % T])
    assert lag_covariances(*half_input(j, f), (r,))[0] == pytest.approx(acc / T, abs=1e-12)


def test_estimated_close_to_true_spectrum_covariance():
    # the gap sqrt(T)|c_hat - c_tilde| stays small for a stationary series
    T = 2048
    w = 2 * np.pi * np.arange(1, T + 1) / T
    f_true = (1 / (2 * np.pi)) / np.abs(1 - 0.8 * np.exp(1j * w)) ** 2
    spec = model_preset("model1", T)
    gaps = []
    for i in range(200):
        x = generate(spec, GeneratorConfig(T=T, rng=RngStream(15, i)))
        x = x - x.mean()
        J = dft_canonical(x)
        gaps.append(math.sqrt(T) * abs(lag_covariances(*half_input(J, smoothed(J)), (1,))[0]
                                       - lag_covariances(*half_input(J, f_true), (1,))[0]))
    assert np.median(gaps) <= 0.5


def direct_covariances(J, f, lags):
    """c(r) for each row straight from the definition: the sum over k of
    J_k conj(J_{k+r}) / sqrt(f_k f_{k+r}), k + r taken modulo T, over T."""
    T = J.shape[-1]
    k = np.arange(T)
    return np.stack([np.sum(J[..., k] * np.conj(J[..., (k + r) % T])
                            / np.sqrt(f[..., k] * f[..., (k + r) % T]), axis=-1) / T
                     for r in lags], axis=-1)


def transformed_rows(rows, T, seed):
    """DFT and smoothed spectrum of ``rows`` variance-modulated noise series."""
    u = np.arange(1, T + 1) / T
    scale = 1 + 0.5 * np.cos(2 * np.pi * u)
    X = np.random.default_rng(seed).standard_normal((rows, T)) * scale
    J = _unfold(_half_dft_rows(X - X.mean(axis=-1, keepdims=True)), T)
    return J, smoothed(J)


# 5-smooth T takes the transform route (375 = 3 * 5**3 is odd), 257 (prime) and
# 7000 (= 2**3 * 5**3 * 7) the loop; lags above T/2 read the conjugate of c(T - r)
@pytest.mark.parametrize("T", [64, 512, 4096, 375, 257, 7000])
@pytest.mark.parametrize("rows", [1, 64])
def test_lag_covariances_match_direct_summation_on_both_routes(T, rows):
    lags = tuple(range(1, 9)) + (T // 2 + 1, T - 2, T - 1)
    J, f = transformed_rows(rows, T, seed=T + rows)
    got = lag_covariances(*half_input(J, f), lags)
    want = direct_covariances(J, f, lags)
    assert got.shape == (rows, len(lags))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # each row is reduced on its own: row i of the block is its one-row result
    for i in range(rows):
        assert np.array_equal(got[i],
                              lag_covariances(*half_input(J[i:i + 1], f[i:i + 1]), lags)[0])


# 5-smooth T takes the transform route whatever the number of lags (the kernel
# reads lags modulo T, so 120 of them fit T = 64); 257 (prime) and 7000 the loop
@pytest.mark.parametrize("L", [1, 120])
@pytest.mark.parametrize("T", [64, 512, 375, 2 ** 18, 257, 7000])
def test_lag_covariance_route_depends_on_T_only(T, L, monkeypatch):
    calls = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
    lag_covariances(np.ones((1, T // 2 + 1), dtype=complex), T, tuple(range(1, L + 1)))
    assert bool(calls) is (T not in (257, 7000))


# 512 takes the kernel's transform route, 257 (prime) the loop, and 16381
# (prime) the loop after a chirp-z DFT
@pytest.mark.parametrize("T", [512, 257, 16381])
@pytest.mark.parametrize("demean", [True, False])
def test_pipeline_never_writes_its_input(T, demean):
    X = pipeline_input(8, T, seed=T)
    X.flags.writeable = False  # a write would raise
    before = X.copy()
    block_covariances(X, _plan(T, None, 10, None, None, 1e-3, demean), _scan_rows(X)[1])
    stationarity_test(X[3], m=10, demean=demean)
    assert np.array_equal(X, before)


# both kernel routes (5-smooth T on the transforms, 257 and 33 on the loop), odd
# and even T, blocks of one and many rows, a ridge that binds (0.5) or not
@pytest.mark.parametrize("kind", ["daniell", "bartlett"])
@pytest.mark.parametrize("demean", [True, False])
@pytest.mark.parametrize("T", [33, 64, 256, 257, 375, 512, 4096])
@pytest.mark.parametrize("rows", [1, 50])
def test_block_pipeline_equals_out_of_place_oracle(kind, demean, T, rows):
    X = pipeline_input(rows, T, seed=T + rows)
    kernel = KernelSpec(kind)
    lags = tuple(range(1, 11)) + (T // 2 + 1, T - 1)
    for ridge_factor in (1e-3, 0.5):
        plan = _plan(T, lags, None, kernel, None, ridge_factor, demean)
        weights = _smoother(kernel, T, ridge_factor)[1]
        want = oracle_block_covariances(X, weights, ridge_factor, plan.lags, demean)
        assert np.array_equal(block_covariances(X, plan, _scan_rows(X)[1]), want)


# The block's arrays: the rolled rows and the padded periodogram in one real
# allocation (about 1.6 X), the half DFT (1 X) and the smoothing product
# (0.6 X), 3-4 X in all; the pipeline with a new array per stage took 6.5 X.
# At 65521 (prime) the chirp-z DFT adds its two complex rows of N = 1.5 T
# (6 X) and a phase index (0.5 X) beside the real allocation and the half
# DFT: 9.2 X measured, where numpy's rfft took 6.5 X traced plus its own
# untraced plan buffers. At other T without the chirp-z DFT (7 * 2**15, 257)
# the loop route's W and V, about half a circle each (1 X each), come on top
# of the real allocation and the half DFT: 4.5 X measured at 7 * 2**15, and
# 5.1 X for 50 rows of 257; an unfolded full circle would add 2 X.
_PEAK_CASES = [(50, 512, 5.0), (1, 2 ** 18, 5.0), (1, 7 * 2 ** 15, 5.0), (50, 257, 6.0),
               (1, 65521, 9.5)]


@pytest.mark.parametrize("rows, T, bound", _PEAK_CASES,
                         ids=[f"{rows}-{T}" for rows, T, _ in _PEAK_CASES])
def test_block_pipeline_peak_memory(rows, T, bound):
    X = pipeline_input(rows, T, seed=1)
    plan = _plan(T, None, 10, None, None, 1e-3, True)
    exponents = _scan_rows(X)[1]
    block_covariances(X, plan, exponents)
    tracemalloc.start()
    try:
        block_covariances(X, plan, exponents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * X.nbytes


def grown_by_a_test(x):
    """Traced memory a stationarity_test of x leaves allocated, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stationarity_test(x, m=10)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_chirp_dft_keeps_one_transform_between_calls(monkeypatch):
    # a warm-up at one routed length, then a first call at another: only the
    # chirp's transform of the second length stays allocated after it
    monkeypatch.setattr(numerics._CHIRP, "kept", {})
    stationarity_test(pipeline_input(1, 16381, seed=1)[0], m=10)
    x = pipeline_input(1, 3 * 8209, seed=2)[0]
    grown = grown_by_a_test(x)
    [(T, kept)] = numerics._CHIRP.kept.items()
    assert T == x.size and not kept.flags.writeable
    assert grown <= kept.nbytes + 16 * 1024
    # a transform above the bound is not kept, and the kept one stays
    monkeypatch.setattr(numerics._CHIRP, "max_bytes", kept.nbytes - 1)
    stationarity_test(pipeline_input(1, 16381, seed=1)[0], m=10)
    assert [*numerics._CHIRP.kept] == [16381]
    assert grown_by_a_test(x) <= 16 * 1024
    assert [*numerics._CHIRP.kept] == [16381]


def chirp_calls(monkeypatch):
    """The lengths whose chirp transform is built from here on, the memo emptied."""
    monkeypatch.setattr(numerics._CHIRP, "kept", {})
    calls = []
    build = numerics._chirp_spectrum
    monkeypatch.setattr(numerics, "_chirp_spectrum",
                        lambda w, T: calls.append(T) or build(w, T))
    return calls


def result_bytes(res):
    return np.concatenate([[res.statistic, res.p_value], np.array(res.covariances).view(float),
                           res.contributions]).tobytes()


def segmented_bytes(x):
    return [result_bytes(b.result) for b in segmented_test(x, 1).blocks]


def test_a_kept_chirp_gives_the_bits_of_a_fresh_one(monkeypatch):
    calls = chirp_calls(monkeypatch)
    x = pipeline_input(1, 2 * 16411, seed=3)[0]
    for run in (lambda: result_bytes(stationarity_test(x[:16411], m=10)),
                lambda: dft_canonical(x[:16411]).tobytes()):
        miss = run()
        assert calls == [16411]
        assert run() == miss  # a hit
        assert calls == [16411]
        monkeypatch.setattr(numerics._CHIRP, "kept", {})
        calls.clear()
    # depth 1's block of two rows of 16411 builds, then reuses, its transform
    # while depth 0's (2 * 16411) is over the bound and never kept
    monkeypatch.setattr(numerics._CHIRP, "max_bytes", 2 ** 19)
    miss = segmented_bytes(x)
    assert calls == [2 * 16411, 16411] and [*numerics._CHIRP.kept] == [16411]
    assert segmented_bytes(x) == miss
    assert calls == [2 * 16411, 16411, 2 * 16411]


def test_chirp_lengths_in_turn_rebuild_and_keep_the_bits(monkeypatch):
    calls = chirp_calls(monkeypatch)
    a, b = pipeline_input(1, 16411, seed=4)[0], pipeline_input(1, 3 * 8209, seed=5)[0]
    runs = [result_bytes(stationarity_test(x, m=10)) for x in (a, b, a, b, b)]
    assert calls == [16411, 3 * 8209, 16411, 3 * 8209]  # the last one a hit
    assert runs[0] == runs[2] and runs[1] == runs[3] == runs[4]


def test_covariance_lag_validation():
    x = np.arange(64.0)
    for bad, why in ((0, "outside the valid range 1..63"),
                     (32, "equals T/2 and is excluded for T=64"),
                     (64, "outside the valid range 1..63"),
                     (-1, "outside the valid range 1..63")):
        with pytest.raises(InputError, match=f"^lag {bad} {re.escape(why)}$"):
            stationarity_test(x, lags=[bad])
    # int() of these raises ValueError, OverflowError and TypeError
    for bad in (float("nan"), float("inf"), None):
        msg = f"^lag must be an integer, got {bad!r}$"
        with pytest.raises(InputError, match=msg):
            stationarity_test(x, lags=[1, bad])
        with pytest.raises(InputError, match=msg):
            McConfig(model=model_preset("model1"), T=64, lags=(bad,))


# ---------------------------------------------------------------------------
# phase and the fourth-cumulant correction
# ---------------------------------------------------------------------------


def transfer_phase(psi, omega):
    """Phase of the filter transfer function via the two-argument arctangent.

    Raises when the transfer modulus drops below 1e-12 (phase undefined).
    Accepts scalar or array omega.
    """
    p = np.asarray(psi, dtype=float)
    if p.ndim != 1 or p.size == 0 or p[0] == 0.0:
        raise InputError("psi must be a nonempty coefficient vector with psi[0] != 0")
    a = _transfer(p, omega)
    if np.any(np.abs(a) < 1e-12):
        raise ComputationError("transfer function modulus below 1e-12")
    phases = np.arctan2(a.imag, a.real)
    return float(phases) if np.isscalar(omega) else phases


def test_phase_white_noise_is_zero():
    w = np.linspace(0, 2 * np.pi, 64)
    assert np.max(np.abs(transfer_phase([1.0], w))) == 0.0


def test_phase_ma1_hand_value():
    assert transfer_phase([1.0, 0.5], np.pi / 2) == pytest.approx(
        math.atan2(0.5, 1.0), abs=1e-12)


def test_phase_zero_frequency_with_positive_sum():
    assert transfer_phase([1.0, 0.4, 0.2], 0.0) == pytest.approx(0.0, abs=1e-12)


def test_phase_degenerate_transfer():
    with pytest.raises(ComputationError, match="^transfer function modulus below 1e-12$"):
        transfer_phase([1.0, -1.0], 0.0)


def test_phase_coherence_at_zero_offset():
    assert _phase_coherence([1.0, 0.5, -0.2], 0.0) == 1.0


def test_phase_coherence_white_noise():
    for x in (0.1, 1.0, np.pi, 5.0):
        assert _phase_coherence([1.0], x) == pytest.approx(1.0, abs=1e-14)


def test_phase_coherence_grid_refinement():
    a = _phase_coherence([1.0, 0.5], np.pi, grid=1024)
    b = _phase_coherence([1.0, 0.5], np.pi, grid=4096)
    assert abs(a - b) < 1e-6


def test_phase_coherence_bounded_random_filters():
    rng = np.random.default_rng(10)
    for _ in range(100):
        psi = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, size=3)])
        x = rng.uniform(0, 2 * np.pi)
        v = _phase_coherence(psi, x)
        assert 0.0 <= v <= 1.0


def test_corrections_gaussian_mode():
    got = _correction_denominators(CorrectionSpec(), [1, 2, 3], 256)
    assert np.array_equal(got, np.ones(3))


def test_corrections_linear_zero_cumulant():
    got = _correction_denominators(CorrectionSpec.linear([1.0, 0.5], 0.0), [1, 5], 256)
    assert np.array_equal(got, np.ones(2))


def test_corrections_linear_small_lag_value():
    # coherence is close to one at tiny frequency offsets, so the denominator
    # approaches 1 + kappa4/2
    got = _correction_denominators(CorrectionSpec.linear([1.0, 0.5], 6.0), [1], 512)
    assert got[0] == pytest.approx(4.0, abs=0.05)


def test_corrections_user_mode():
    got = _correction_denominators(CorrectionSpec.user([0.4, 1.0]), [1, 2], 128)
    assert np.allclose(got, [1.2, 1.5])
    with pytest.raises(InputError, match="^user correction has 1 kappa values for 2 lags$"):
        _correction_denominators(CorrectionSpec.user([0.4]), [1, 2], 128)


def test_corrections_negative_denominator():
    with pytest.raises(InputError, match="^correction denominator is not positive$"):
        _correction_denominators(CorrectionSpec.user([-3.0]), [1], 128)


def test_correction_spec_validation():
    with pytest.raises(InputError, match="^unknown correction mode 'bogus'$"):
        CorrectionSpec(mode="bogus")
    psi_msg = re.escape("linear_plugin correction needs finite psi with psi[0] != 0")
    with pytest.raises(InputError, match=psi_msg):
        CorrectionSpec.linear([], 1.0)
    with pytest.raises(InputError, match=psi_msg):
        CorrectionSpec.linear([0.0, 1.0], 1.0)
    with pytest.raises(InputError, match=psi_msg):  # one filter, not a table of them
        CorrectionSpec(mode="linear_plugin", psi=((1.0, 0.5),), kappa4=1.0)
    with pytest.raises(InputError, match="^user correction needs explicit kappa values$"):
        CorrectionSpec(mode="user")


# ---------------------------------------------------------------------------
# the test statistic
# ---------------------------------------------------------------------------


def test_null_rejection_rate_within_binomial_band():
    T, reps = 512, 1000
    crit = 18.307038053275146  # chi-square 10 dof, upper 5%
    rej = 0
    for i in range(reps):
        x = RngStream(21, i).generator().standard_normal(T)
        res = stationarity_test(x, m=5)
        rej += res.statistic > crit
    assert 0.030 <= rej / reps <= 0.075


def test_scale_invariance():
    rng = np.random.default_rng(22)
    x = rng.standard_normal(256)
    base = stationarity_test(x, m=4).statistic
    for c in (0.1, 7.3):
        scaled = stationarity_test(c * x, m=4).statistic
        assert abs(scaled - base) <= 1e-8


def test_sign_invariance():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(256)
    assert abs(stationarity_test(-x, m=4).statistic
               - stationarity_test(x, m=4).statistic) <= 1e-10


# T = 512 (5-smooth) takes the transform route and T = 509 (prime) the loop
@pytest.mark.parametrize("T", [512, 509])
def test_shift_invariance_on_both_routes(T):
    x = generate(model_preset("model6", T), GeneratorConfig(T=T, rng=RngStream(29, 0)))
    base = stationarity_test(x, m=10).statistic
    for c in (-3.5, 1e3):
        assert stationarity_test(x + c, m=10).statistic == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("T", [512, 509])
def test_lag_order_does_not_change_the_statistic_on_both_routes(T):
    x = generate(model_preset("model6", T), GeneratorConfig(T=T, rng=RngStream(30, 0)))
    lags = tuple(range(1, 11))
    perm = np.random.default_rng(T).permutation(len(lags))
    a = stationarity_test(x, lags=lags)
    b = stationarity_test(x, lags=[lags[i] for i in perm])
    assert b.statistic == pytest.approx(a.statistic, rel=1e-12)
    assert b.contributions == tuple(a.contributions[i] for i in perm)
    assert b.covariances == tuple(a.covariances[i] for i in perm)


def test_result_fields_consistent():
    rng = np.random.default_rng(24)
    x = rng.standard_normal(300)
    res = stationarity_test(x, lags=[2, 7, 11], levels=(0.05, 0.1))
    assert res.statistic >= 0
    assert 0.0 <= res.p_value <= 1.0
    assert res.dof == 6
    assert res.lags == (2, 7, 11)
    assert res.p_value == pytest.approx(chisq_sf(res.statistic, 6), abs=1e-14)
    assert res.reject_at == {0.05: res.p_value < 0.05, 0.1: res.p_value < 0.1}
    assert res.kernel.bandwidth == pytest.approx(300 ** (-1 / 3))


def test_lag_and_length_validation():
    rng = np.random.default_rng(25)
    x = rng.standard_normal(64)
    with pytest.raises(InputError, match=r"^lag 0 outside the valid range 1\.\.63$"):
        stationarity_test(x, lags=[0])
    with pytest.raises(InputError, match="^lag 32 equals T/2 and is excluded for T=64$"):
        stationarity_test(x, lags=[32])  # T/2
    with pytest.raises(InputError, match=r"^lag 64 outside the valid range 1\.\.63$"):
        stationarity_test(x, lags=[64])
    with pytest.raises(InputError, match=r"^lag must be an integer, got 1\.5$"):
        stationarity_test(x, lags=[1.5])
    with pytest.raises(InputError, match="^series too short for the test: T=16 < 32$"):
        stationarity_test(rng.standard_normal(16))
    with pytest.raises(InputError, match="^degenerate series: zero variance$"):
        stationarity_test(np.zeros(64))
    with pytest.raises(InputError, match="^series contains non-finite values$"):
        x2 = x.copy()
        x2[5] = np.nan
        stationarity_test(x2)


def test_a_huge_lag_count_fails_like_m_equal_T_without_building_its_lags():
    # lags from T on are all invalid, so 1..m is cut at T before it is built
    x = np.random.default_rng(25).standard_normal(64)
    calls = [lambda m: stationarity_test(x, m=m), lambda m: segmented_test(x, depth=1, m=m)]
    for call in calls:
        with pytest.raises(InputError, match="^lag 32 equals T/2") as at_T:
            call(64)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="^lag 32 equals T/2") as huge:
                call(10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(huge.value) == str(at_T.value) == "lag 32 equals T/2 and is excluded for T=64"
        assert peak < 2 ** 20


def flat_spectrum(u, w):
    return 1.0 + 0.0 * u * w


@pytest.mark.parametrize("name, call", [
    ("lag", lambda: power_profile(flat_spectrum, [1.7])),
    ("lag", lambda: power_profile(flat_spectrum, [math.nan])),
    ("u_points", lambda: power_profile(flat_spectrum, [1], u_points=200.5)),
    ("T", lambda: power_profile(flat_spectrum, [1], T=512.5)),
    ("T", lambda: model_preset("model1", 100.5)),
    ("T", lambda: McConfig(model=model_preset("model1"), T=256.5)),
    ("replications", lambda: McConfig(model=model_preset("model1"), T=256, replications=2.5)),
    ("master_seed", lambda: McConfig(model=model_preset("model1"), T=256, master_seed=1.5)),
    ("burn_in", lambda: McConfig(model=model_preset("model1"), T=256, burn_in=2.5)),
    ("T", lambda: GeneratorConfig(T=100.5)),
    ("burn_in", lambda: GeneratorConfig(T=100, burn_in=0.5)),
    ("master_seed", lambda: RngStream(1.5)),
    ("depth", lambda: segmented_test(np.arange(256.0) % 7, depth=1.5)),
    ("m", lambda: stationarity_test(np.arange(256.0) % 7, m=2.5)),
])
def test_an_integer_argument_is_checked_not_truncated(name, call):
    with pytest.raises(InputError, match=f"^{name} must be a(n| positive) integer, got "):
        call()


@pytest.mark.parametrize("name, call", [
    ("lags", lambda: stationarity_test(np.arange(256.0) % 7, lags=5)),
    ("lags", lambda: McConfig(model=model_preset("model1"), T=256, lags=5)),
    ("lags", lambda: lag_scan(model_preset("model1"), 256, 5)),
    ("lags", lambda: power_profile(flat_spectrum, 5)),
    ("bandwidth", lambda: KernelSpec(bandwidth="0.1")),
    ("ridge_factor", lambda: stationarity_test(np.arange(256.0) % 7, ridge_factor=None)),
    ("level", lambda: stationarity_test(np.arange(256.0) % 7, levels=["a"])),
    ("levels", lambda: stationarity_test(np.arange(256.0) % 7, levels=0.05)),
    ("level", lambda: McConfig(model=model_preset("model1"), T=256, level="0.05")),
    ("chisq_quantile requires p", lambda: chisq_quantile("0.5", 2)),
    ("chisq_sf requires x", lambda: chisq_sf("1", 2)),
])
def test_an_argument_of_the_wrong_type_is_an_input_error(name, call):
    with pytest.raises(InputError, match=f"^{name} "):
        call()


def test_integral_floats_count_as_integers():
    x = np.random.default_rng(27).standard_normal(256)
    assert stationarity_test(x, m=3.0) == stationarity_test(x, m=3)
    assert segmented_test(x, depth=1.0).blocks == segmented_test(x, depth=1).blocks
    floats = GeneratorConfig(T=64.0, burn_in=10.0, rng=RngStream(4.0, 2.0))
    ints = GeneratorConfig(T=64, burn_in=10, rng=RngStream(4, 2))
    assert np.array_equal(generate(ArmaSpec(), floats), generate(ArmaSpec(), ints))
    config = McConfig(model=model_preset("model1"), T=256.0, replications=3.0, burn_in=50.0)
    assert (config.T, config.replications, config.burn_in) == (256, 3, 50)


def test_complex_input_is_refused_not_cut_to_its_real_part():
    z = np.random.default_rng(26).standard_normal(64) * (1 + 1j)
    for call in (stationarity_test, lambda s: segmented_test(s, depth=1), dft_canonical):
        for series in (z, z.tolist()):
            with pytest.raises(InputError, match="series must be real"):
                call(series)


@pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.05, float("nan")])
def test_levels_outside_the_unit_interval_are_rejected(level):
    x = np.random.default_rng(25).standard_normal(128)
    with pytest.raises(InputError, match=r"^level must be in \(0, 1\)"):
        stationarity_test(x, levels=(0.05, level))
    with pytest.raises(InputError, match=r"^level must be in \(0, 1\)"):
        segmented_test(x, depth=1, levels=(level,))


def test_covariance_scale_is_tight_across_lengths():
    # sqrt(T)|c(1)| stays bounded as T grows for a stationary process
    spec = model_preset("model1", 256)
    for T in (256, 512, 1024, 2048):
        meds = []
        for i in range(100):
            x = generate(spec, GeneratorConfig(T=T, rng=RngStream(26, i)))
            c = stationarity_test(x, lags=[1]).covariances[0]
            meds.append(math.sqrt(T) * abs(c))
        assert np.median(meds) < 3.0


def test_dft_covariances_shared_transform_matches_single_lag():
    rng = np.random.default_rng(27)
    x = rng.standard_normal(200)
    res = stationarity_test(x, lags=[1, 4, 9])
    J = dft_canonical(x - x.mean())
    f = smoothed(J)
    for lag, val in zip(res.lags, res.covariances):
        want = lag_covariances(*half_input(J, f), (lag,))[0]
        assert val == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("correction", [None, CorrectionSpec.linear([1.0, 0.5], 1.3)])
def test_result_reports_covariances_and_per_lag_contributions(correction):
    for T, lags in ((300, (2, 7, 1)), (512, tuple(range(1, 11)))):
        x = generate(model_preset("model6", T), GeneratorConfig(T=T, rng=RngStream(28, 0)))
        res = stationarity_test(x, lags=lags, correction=correction)
        half = _half_dft_rows(x - x.mean())
        f = smooth_half(np.abs(half) ** 2, T, _smoother(None, T, 1e-3), 1e-3)
        assert res.covariances == tuple(lag_covariances(half / np.sqrt(f), T, lags).tolist())
        assert all(type(c) is complex for c in res.covariances)
        assert all(type(c) is float for c in res.contributions)
        assert sum(res.contributions) == pytest.approx(res.statistic, rel=1e-12)
        # each lag's term is that lag's single-lag statistic, bit for bit
        for lag, part in zip(lags, res.contributions):
            assert part == stationarity_test(x, lags=[lag], correction=correction).statistic


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def test_segment_depth_zero_equals_full_test():
    rng = np.random.default_rng(28)
    x = rng.standard_normal(256)
    report = segmented_test(x, depth=0, m=4)
    assert len(report.blocks) == 1
    blk = report.blocks[0]
    assert (blk.start, blk.stop) == (0, 256)
    assert blk.result.statistic == stationarity_test(x, m=4).statistic


def test_segment_depth_three_block_layout():
    rng = np.random.default_rng(29)
    x = rng.standard_normal(2048)
    report = segmented_test(x, depth=3, m=2)
    assert len(report.blocks) == 1 + 2 + 4 + 8
    leaves = report.at_depth(3)
    assert all(b.stop - b.start == 256 for b in leaves)
    for d in range(4):
        blocks = report.at_depth(d)
        assert blocks[0].start == 0 and blocks[-1].stop == 2048
        for left, right in zip(blocks, blocks[1:]):
            assert left.stop == right.start


def test_segment_remainder_goes_to_last_block():
    rng = np.random.default_rng(30)
    x = rng.standard_normal(1000)
    report = segmented_test(x, depth=2, m=2)
    quarters = report.at_depth(2)
    assert [b.stop - b.start for b in quarters] == [250, 250, 250, 250]
    x = rng.standard_normal(1003)
    report = segmented_test(x, depth=2, m=2)
    quarters = report.at_depth(2)
    assert [b.stop - b.start for b in quarters] == [250, 250, 250, 253]


def test_a_block_that_cannot_be_tested_is_named():
    x = np.random.default_rng(32).standard_normal(1024)
    x[512:768] = 1.0  # the series has variance, its third quarter none
    with pytest.raises(InputError, match=re.escape(
            "depth 2 block 2 [512, 768): degenerate series: zero variance")):
        segmented_test(x, depth=2)
    x = np.random.default_rng(32).standard_normal(1003)
    x[750:] = 1.0  # the last block, which carries the remainder, runs on its own
    with pytest.raises(InputError, match=re.escape(
            "depth 2 block 3 [750, 1003): degenerate series: zero variance")):
        segmented_test(x, depth=2)


def test_segment_leaf_too_short():
    rng = np.random.default_rng(31)
    with pytest.raises(InputError, match="^depth 3 gives leaf blocks of length 16 < 32$"):
        segmented_test(rng.standard_normal(128), depth=3, m=2)


# ---------------------------------------------------------------------------
# series at any scale, and a spectrum that is zero
# ---------------------------------------------------------------------------


# 64 takes the kernel's transform route, 67 (prime) the loop
@pytest.mark.parametrize("T", [64, 67])
def test_power_of_two_scaling_changes_no_bit(T):
    # each row is divided by the power of two of its largest |x|, so |J|**2
    # neither overflows (about 2**512 and up) nor loses bits (2**-500 and below)
    x = pipeline_input(1, T, seed=T)[0]
    lags = (1, 2, 3, T // 2 - 1, T // 2 + 1, T - 2, T - 1)
    want = stationarity_test(x, lags=lags)
    for k in range(-900, 901):
        got = stationarity_test(np.ldexp(x, k), lags=lags)
        assert (got.statistic, got.covariances) == (want.statistic, want.covariances), k


@pytest.mark.parametrize("scale", [1e154, 1e-160, 1e-170, 1e300, 1e-300])
def test_extreme_scales_give_the_statistic_to_rounding(scale):
    x = pipeline_input(1, 300, seed=5)[0]
    want = stationarity_test(x, m=6)
    got = stationarity_test(x * scale, m=6)
    assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
    assert np.allclose(got.covariances, want.covariances, rtol=0, atol=1e-12)


def test_a_series_too_large_for_the_dft_is_an_input_error():
    # |x| * T near the largest float would overflow the DFT itself
    x = pipeline_input(1, 300, seed=5)[0]
    assert math.isfinite(stationarity_test(x * 1e303).statistic)
    with pytest.raises(InputError, match="too large for the DFT: .* for T=300$"):
        stationarity_test(x * 1e306)


def test_segments_at_extreme_scales_are_tested():
    x = pipeline_input(1, 1024, seed=6)[0]
    want = segmented_test(x, depth=2, m=3)
    got = segmented_test(np.ldexp(x, 700), depth=2, m=3)
    assert [b.result.statistic for b in got.blocks] == [b.result.statistic for b in want.blocks]


ZERO_RIDGE_SERIES = {
    "cosine": np.cos(2 * np.pi * 5 * np.arange(1, 257) / 256),
    "alternating": (-1.0) ** np.arange(1, 257),
}


@pytest.mark.parametrize("name", ZERO_RIDGE_SERIES)
def test_a_zero_smoothed_spectrum_is_a_degenerate_spectrum(name):
    x = ZERO_RIDGE_SERIES[name]
    match = "smoothed spectrum is zero .* ridge_factor > 0"
    with pytest.raises(ComputationError, match=match):
        stationarity_test(x, ridge_factor=0.0)
    with pytest.raises(ComputationError, match=match):
        segmented_test(x, depth=1, ridge_factor=0.0)
    # a ridge floors the spectrum, and the same series is tested
    assert math.isfinite(stationarity_test(x, ridge_factor=1e-3).statistic)


def test_a_zero_spectrum_error_starts_with_its_row_name():
    # the message starts with the name of the lowest row whose terms are
    # not finite: nothing for one series, the block in a segmented test,
    # whether it is a row of its depth's batch or the remainder run alone
    zero = r"the smoothed spectrum is zero at some frequency, .* ridge_factor > 0$"
    x = ZERO_RIDGE_SERIES["cosine"]
    with pytest.raises(ComputationError, match="^" + zero):
        stationarity_test(x, ridge_factor=0.0)
    with pytest.raises(ComputationError, match=r"^depth 0 block 0 \[0, 256\): " + zero):
        segmented_test(x, depth=1, ridge_factor=0.0)
    noise = np.random.default_rng(31).standard_normal(128)
    for n in (128, 129):  # block 1 is row 1 of the depth's batch, then a batch of one
        y = np.concatenate([noise, np.cos(2 * np.pi * 5 * np.arange(1, n + 1) / n)])
        with pytest.raises(ComputationError,
                           match=rf"^depth 1 block 1 \[128, {128 + n}\): " + zero):
            segmented_test(y, depth=1, ridge_factor=0.0)
