import itertools
import math
import warnings

import numpy as np
import pytest

from dftstat import (
    BandwidthWarning,
    GeneratorConfig,
    InputError,
    KernelSpec,
    McConfig,
    RngStream,
    dft_canonical,
    generate,
    lag_scan,
    model_preset,
    rejection_rate,
    segmented_test,
    stationarity_test,
)
from dftstat.spectral import _fast_length, _kernel_weights, _smoother
from pipeline_oracle import full_circle, half_of, smooth_half


def test_periodogram_zero_series():
    assert np.all(np.abs(dft_canonical(np.zeros(32))) ** 2 == 0)


def test_periodogram_cosine_mass_at_two_bins():
    T = 16
    t = np.arange(1, T + 1)
    pg = np.abs(dft_canonical(np.cos(2 * np.pi * t * 3 / T))) ** 2
    for k in range(1, T + 1):
        if k in (3, 13):
            assert pg[k - 1] > 0.1
        else:
            assert pg[k - 1] < 1e-20


def test_periodogram_white_noise_level():
    # E|J(w)|^2 = 1/(2*pi) for unit-variance white noise
    T = 4096
    acc = 0.0
    for i in range(50):
        acc += (np.abs(dft_canonical(RngStream(20, i).generator().standard_normal(T))) ** 2).mean()
    assert acc / 50 == pytest.approx(1 / (2 * np.pi), abs=0.01)


def smoothed(pg, kernel=None, ridge_factor=1e-3):
    """The half smoother of a symmetric periodogram pg (last axis k = 1..T),
    read at k = 0..T//2."""
    T = pg.shape[-1]
    return smooth_half(half_of(pg), T, _smoother(kernel, T, ridge_factor), ridge_factor)


def _symmetric_periodogram(T, seed):
    """Exponential values at k = 0..T//2, mirrored onto the whole circle."""
    return full_circle(np.random.default_rng(seed).exponential(size=T // 2 + 1), T)


@pytest.mark.parametrize("kind", ["daniell", "bartlett"])
@pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
def test_smoothing_preserves_constants(kind, b):
    T = 128
    c = 3.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        est = smoothed(np.full(T, c), KernelSpec(kind, b))
    assert np.max(np.abs(est - c)) < 1e-12


def test_positivity_and_ridge_floor():
    # k = 10..70 are zero, so the window of half-width 20 around k = 40 sees
    # only zeros and the floor binds there
    T = 256
    pg = _symmetric_periodogram(T, 5)
    pg[9:70] = pg[T - 71:T - 10] = 0.0
    est = smoothed(pg, ridge_factor=1e-3)
    ridge = 1e-3 * pg.mean()
    assert ridge > 0
    assert est.min() == pytest.approx(ridge, rel=1e-13)
    assert est[40] == est.min()
    assert np.all(est >= est.min())


def test_scale_equivariance():
    pg = _symmetric_periodogram(200, 6)
    a = smoothed(pg)
    b = smoothed(7.3 * pg)
    assert np.max(np.abs(b - 7.3 * a)) < 1e-10 * np.max(b)


def test_flat_kernel_locality():
    # output at a target bin only sees periodogram values within the window;
    # a bump at k and T - k keeps the periodogram symmetric
    T = 256
    b = 32 / T
    half = 16
    pg = _symmetric_periodogram(T, 7) + 1.0
    target, bump = 100, 100 + half + 5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        base = smoothed(pg, KernelSpec("daniell", b), ridge_factor=0.0)
        far = pg.copy()
        far[bump - 1] += 50.0
        far[T - bump - 1] += 50.0
        bumped = smoothed(far, KernelSpec("daniell", b), ridge_factor=0.0)
    assert bumped[target] == pytest.approx(base[target], rel=1e-12)
    assert bumped[bump] > base[bump]


def _direct_smooth(pg, weights):
    """fhat_k = sum_j W(j) I_{k+j mod T}, one np.roll per offset."""
    H = weights.size // 2
    return sum(weights[H + j] * np.roll(pg, -j) for j in range(-H, H + 1))


def _model1_periodogram(T, stream):
    x = generate(model_preset("model1", T), GeneratorConfig(T=T, rng=RngStream(15, stream)))
    return np.abs(dft_canonical(x)) ** 2


@pytest.mark.parametrize("kind", ["daniell", "bartlett"])
# the half smoother's mirrored pads reach k = H and T - h - H, its bounds at odd
# T and the widest window (T = 33: H = 7, h = 16); at T = 230 the default window
# (H = 18) pads the half to 152 values, transformed at the 5-smooth length 160
@pytest.mark.parametrize("T", [33, 64, 230, 257, 4093, 4096])
@pytest.mark.parametrize("b", [None, 0.45])  # default and the widest window
def test_smoothing_matches_direct_circular_sum(kind, T, b):
    pg = _model1_periodogram(T, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        smoother = _smoother(KernelSpec(kind, b), T, 0.0)
    direct = half_of(_direct_smooth(pg, smoother[1]))
    half = smooth_half(half_of(pg), T, smoother, 0.0)
    assert np.max(np.abs(half - direct) / direct) < 1e-13


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_length_is_the_smallest_5_smooth_length():
    for m in range(1, 5001):
        assert _fast_length(m) == next(n for n in itertools.count(m) if _is_5_smooth(n))
    assert _fast_length(266238) == 270000  # T = 2**18 with its default window


@pytest.mark.parametrize("T", [64, 257, 4096])
def test_smoothing_a_block_equals_its_rows(T):
    pg = np.stack([_model1_periodogram(T, i) for i in range(7)])
    smoother = _smoother(KernelSpec("bartlett"), T, 1e-3)
    block = smooth_half(half_of(pg), T, smoother, 1e-3)
    for i in range(7):
        assert np.array_equal(block[i], smooth_half(half_of(pg[i]), T, smoother, 1e-3))


@pytest.mark.parametrize("T", [64, 257])
def test_half_smoother_floors_at_the_full_circle_ridge(T):
    # a ridge of half the mean periodogram lies above the smoothed AR(1)
    # spectrum at high frequencies, so the floor binds there
    pg = _model1_periodogram(T, 0)
    smoother = _smoother(None, T, 0.5)
    ridge = 0.5 * pg.mean()
    direct = half_of(_direct_smooth(pg, smoother[1]))
    assert np.any(direct < ridge)
    full = np.maximum(direct, ridge)
    half = smooth_half(half_of(pg), T, smoother, 0.5)
    assert np.max(np.abs(half - full) / full) < 1e-13


def test_white_noise_estimate_tracks_flat_spectrum():
    T = 1024
    avg = np.zeros(T // 2 + 1)
    for i in range(100):
        avg += smoothed(np.abs(dft_canonical(RngStream(14, i).generator().standard_normal(T))) ** 2)
    avg /= 100
    rel = np.max(np.abs(avg - 1 / (2 * np.pi))) * 2 * np.pi
    assert rel < 0.10


def test_ar1_estimate_tracks_closed_form_spectrum():
    T = 2048
    w = 2 * np.pi * np.arange(1, T + 1) / T
    f_true = (1 / (2 * np.pi)) / np.abs(1 - 0.8 * np.exp(1j * w)) ** 2
    spec = model_preset("model1", T)
    rmse = 0.0
    for i in range(100):
        x = generate(spec, GeneratorConfig(T=T, rng=RngStream(13, i)))
        est = full_circle(smoothed(np.abs(dft_canonical(x)) ** 2), T)
        rmse += np.sqrt(np.mean((est - f_true) ** 2 / f_true ** 2))
    assert rmse / 100 <= 0.15


def test_bandwidth_warning_band():
    T = 512
    x = np.random.default_rng(16).standard_normal(T)
    # inside (T^-1/2, T^-1/4): silent
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandwidthWarning)
        stationarity_test(x, kernel=KernelSpec("daniell", T ** (-1 / 3)))
        stationarity_test(x)  # automatic default is inside the band
    # outside: warns but still computes
    with pytest.warns(BandwidthWarning):
        stationarity_test(x, kernel=KernelSpec("daniell", 0.3))
    with pytest.warns(BandwidthWarning):
        stationarity_test(x, kernel=KernelSpec("daniell", 0.02))


def test_the_bandwidth_warning_names_the_callers_line():
    # each entry point reaches the kernel at its own depth in the library
    x = np.random.default_rng(16).standard_normal(512)
    wide, model = KernelSpec("daniell", 0.3), model_preset("model1")
    calls = [lambda: stationarity_test(x, kernel=wide),
             lambda: segmented_test(x, depth=1, kernel=wide),
             lambda: rejection_rate(McConfig(model=model, T=512, replications=2, kernel=wide)),
             lambda: lag_scan(model, 512, [1, 2], replications=2, kernel=wide)]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught and {w.filename for w in caught} == {__file__}
        assert all(w.category is BandwidthWarning for w in caught)


def test_bandwidth_too_small_is_an_error():
    x = np.random.default_rng(17).standard_normal(64)
    with pytest.raises(InputError, match=r"^kernel window covers fewer than 3 frequencies \(b\*T = 2\.56\)$"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BandwidthWarning)
            stationarity_test(x, kernel=KernelSpec("daniell", 0.04))  # b*T = 2.56


def test_kernel_spec_validation():
    with pytest.raises(InputError, match="^unknown kernel kind 'hann'; expected one of "):
        KernelSpec("hann")
    with pytest.raises(InputError, match=r"^bandwidth must lie in \(0, 1/2\), got 0\.6$"):
        KernelSpec("daniell", 0.6)
    with pytest.raises(InputError, match=r"^bandwidth must lie in \(0, 1/2\), got 0\.0$"):
        KernelSpec("daniell", 0.0)


def test_kernel_weights_sum_to_one():
    for kind in ("daniell", "bartlett"):
        w = _kernel_weights(kind, 0.1, 200)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)
        assert np.array_equal(w, w[::-1])  # symmetric


def test_ridge_factor_must_be_finite_and_nonnegative():
    x = np.random.default_rng(18).standard_normal(64)
    for ridge_factor in (-0.1, math.inf, math.nan):
        with pytest.raises(InputError, match="ridge_factor must be finite and >= 0"):
            stationarity_test(x, ridge_factor=ridge_factor)
