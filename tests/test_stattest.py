import math
import warnings

import numpy as np
import pytest

from dftstat import (
    CorrectionSpec,
    DegenerateTransferError,
    GeneratorConfig,
    InvalidCorrectionError,
    InvalidInputError,
    InvalidLagError,
    RngStream,
    SegmentationDepthError,
    chisq_sf,
    correction_denominators,
    dft_canonical,
    dft_covariances,
    gauss_stream,
    generate,
    model_preset,
    phase_coherence,
    segmented_test,
    smooth_spectral,
    stationarity_test,
)
from dftstat.stattest import _lag_covariances, _transfer


# ---------------------------------------------------------------------------
# standardized covariances
# ---------------------------------------------------------------------------


def test_covariance_single_frequency_pair_by_hand():
    # a pure cosine has only two nonzero DFT bins (k = 3 and 13 for T = 16),
    # so with a constant denominator the covariance at lag 10 reduces to one
    # product: c(10) = J_3 * conj(J_13) / 16
    T = 16
    t = np.arange(1, T + 1)
    x = np.cos(2 * np.pi * t * 3 / T)
    j = dft_canonical(x)
    expected = j[3 - 1] * np.conj(j[13 - 1]) / T
    got, cold = _lag_covariances(j, np.ones(T), (10, 3))
    assert got == pytest.approx(expected, abs=1e-12)
    # and lags pairing a hot bin with a cold one give zero
    assert abs(cold) < 1e-15


def test_covariance_white_noise_second_moment():
    # real and imaginary parts of sqrt(T) c(r) each have unit variance, so
    # the mean of T|c(1)|^2 is 2
    T = 1024
    vals = []
    for i in range(500):
        x = gauss_stream(RngStream(11, i), T)
        x = x - x.mean()
        J = dft_canonical(x)
        est = smooth_spectral(np.abs(J) ** 2)
        vals.append(T * abs(_lag_covariances(J, est.values, (1,))[0]) ** 2)
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
        x = scale * gauss_stream(RngStream(12, i), T)
        acc += _lag_covariances(dft_canonical(x), f_const, (1,))[0]
    assert abs(acc / 500 - 0.5 / 1.125) < 0.02


def test_covariance_with_supplied_spectrum_matches_estimated():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(128)
    est = smooth_spectral(periodogram_of(x))
    a = dft_covariances(x, lags=[3], demean=False).values[0]
    b = _lag_covariances(dft_canonical(x), est.values, (3,))[0]
    assert a == pytest.approx(b, abs=1e-14)


def periodogram_of(x):
    return np.abs(dft_canonical(x)) ** 2


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
    assert _lag_covariances(j, f, (r,))[0] == pytest.approx(acc / T, abs=1e-12)


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
        est = smooth_spectral(np.abs(J) ** 2)
        gaps.append(math.sqrt(T) * abs(_lag_covariances(J, est.values, (1,))[0]
                                       - _lag_covariances(J, f_true, (1,))[0]))
    assert np.median(gaps) <= 0.5


def test_covariance_lag_validation():
    x = np.arange(64.0)
    for bad in (0, 32, 64, -1):
        with pytest.raises(InvalidLagError):
            dft_covariances(x, lags=[bad])


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
        raise InvalidInputError("psi must be a nonempty coefficient vector with psi[0] != 0")
    a = _transfer(p, omega)
    if np.any(np.abs(a) < 1e-12):
        raise DegenerateTransferError("transfer function modulus below 1e-12")
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
    with pytest.raises(DegenerateTransferError):
        transfer_phase([1.0, -1.0], 0.0)


def test_phase_coherence_at_zero_offset():
    assert phase_coherence([1.0, 0.5, -0.2], 0.0) == 1.0


def test_phase_coherence_white_noise():
    for x in (0.1, 1.0, np.pi, 5.0):
        assert phase_coherence([1.0], x) == pytest.approx(1.0, abs=1e-14)


def test_phase_coherence_grid_refinement():
    a = phase_coherence([1.0, 0.5], np.pi, grid=1024)
    b = phase_coherence([1.0, 0.5], np.pi, grid=4096)
    assert abs(a - b) < 1e-6


def test_phase_coherence_bounded_random_filters():
    rng = np.random.default_rng(10)
    for _ in range(100):
        psi = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, size=3)])
        x = rng.uniform(0, 2 * np.pi)
        v = phase_coherence(psi, x)
        assert 0.0 <= v <= 1.0


def test_corrections_gaussian_mode():
    got = correction_denominators(CorrectionSpec.gaussian(), [1, 2, 3], 256)
    assert np.array_equal(got, np.ones(3))


def test_corrections_linear_zero_cumulant():
    got = correction_denominators(CorrectionSpec.linear([1.0, 0.5], 0.0), [1, 5], 256)
    assert np.array_equal(got, np.ones(2))


def test_corrections_linear_small_lag_value():
    # coherence is close to one at tiny frequency offsets, so the denominator
    # approaches 1 + kappa4/2
    got = correction_denominators(CorrectionSpec.linear([1.0, 0.5], 6.0), [1], 512)
    assert got[0] == pytest.approx(4.0, abs=0.05)


def test_corrections_user_mode():
    got = correction_denominators(CorrectionSpec.user([0.4, 1.0]), [1, 2], 128)
    assert np.allclose(got, [1.2, 1.5])
    with pytest.raises(InvalidInputError):
        correction_denominators(CorrectionSpec.user([0.4]), [1, 2], 128)


def test_corrections_negative_denominator():
    with pytest.raises(InvalidCorrectionError):
        correction_denominators(CorrectionSpec.user([-3.0]), [1], 128)


def test_correction_spec_validation():
    with pytest.raises(InvalidInputError):
        CorrectionSpec(mode="bogus")
    with pytest.raises(InvalidInputError):
        CorrectionSpec.linear([], 1.0)
    with pytest.raises(InvalidInputError):
        CorrectionSpec.linear([0.0, 1.0], 1.0)
    with pytest.raises(InvalidInputError):
        CorrectionSpec(mode="user")


# ---------------------------------------------------------------------------
# the test statistic
# ---------------------------------------------------------------------------


def test_null_rejection_rate_within_binomial_band():
    T, reps = 512, 1000
    crit = 18.307038053275146  # chi-square 10 dof, upper 5%
    rej = 0
    for i in range(reps):
        x = gauss_stream(RngStream(21, i), T)
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
    with pytest.raises(InvalidLagError):
        stationarity_test(x, lags=[0])
    with pytest.raises(InvalidLagError):
        stationarity_test(x, lags=[32])  # T/2
    with pytest.raises(InvalidLagError):
        stationarity_test(x, lags=[64])
    with pytest.raises(InvalidLagError):
        stationarity_test(x, lags=[1.5])
    with pytest.raises(InvalidInputError):
        stationarity_test(rng.standard_normal(16))
    with pytest.raises(InvalidInputError):
        stationarity_test(np.zeros(64))
    with pytest.raises(InvalidInputError):
        x2 = x.copy()
        x2[5] = np.nan
        stationarity_test(x2)


@pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.05, float("nan")])
def test_levels_outside_the_unit_interval_are_rejected(level):
    x = np.random.default_rng(25).standard_normal(128)
    with pytest.raises(InvalidInputError, match="level"):
        stationarity_test(x, levels=(0.05, level))
    with pytest.raises(InvalidInputError, match="level"):
        segmented_test(x, depth=1, levels=(level,))


def test_covariance_scale_is_tight_across_lengths():
    # sqrt(T)|c(1)| stays bounded as T grows for a stationary process
    spec = model_preset("model1", 256)
    for T in (256, 512, 1024, 2048):
        meds = []
        for i in range(100):
            x = generate(spec, GeneratorConfig(T=T, rng=RngStream(26, i)))
            covs = dft_covariances(x, lags=[1])
            meds.append(math.sqrt(T) * abs(covs.values[0]))
        assert np.median(meds) < 3.0


def test_dft_covariances_shared_transform_matches_single_lag():
    rng = np.random.default_rng(27)
    x = rng.standard_normal(200)
    covs = dft_covariances(x, lags=[1, 4, 9])
    est = smooth_spectral(np.abs(dft_canonical(x - x.mean())) ** 2)
    for lag, val in zip(covs.lags, covs.values):
        want = _lag_covariances(dft_canonical(x - x.mean()), est.values, (lag,))[0]
        assert val == pytest.approx(want, abs=1e-14)


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


def test_segment_leaf_too_short():
    rng = np.random.default_rng(31)
    with pytest.raises(SegmentationDepthError):
        segmented_test(rng.standard_normal(128), depth=3, m=2)
