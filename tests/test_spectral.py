import itertools
import warnings

import numpy as np
import pytest

from dftstat import (
    BandwidthTooSmallError,
    BandwidthWarning,
    GeneratorConfig,
    InvalidInputError,
    KernelSpec,
    RngStream,
    dft_canonical,
    gauss_stream,
    generate,
    model_preset,
    smooth_spectral,
)
from dftstat.spectral import (
    _fast_length,
    _kernel_weights,
    _smooth_rows,
    _smoother,
)
from pipeline_oracle import smooth_half


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
        acc += (np.abs(dft_canonical(gauss_stream(RngStream(20, i), T))) ** 2).mean()
    assert acc / 50 == pytest.approx(1 / (2 * np.pi), abs=0.01)


@pytest.mark.parametrize("kind", ["daniell", "bartlett"])
@pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
def test_smoothing_preserves_constants(kind, b):
    T = 128
    c = 3.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        est = smooth_spectral(np.full(T, c), KernelSpec(kind, b))
    assert np.max(np.abs(est.values - c)) < 1e-12


def test_positivity_and_ridge_floor():
    rng = np.random.default_rng(5)
    pg = rng.exponential(size=256)
    pg[10:40] = 0.0
    est = smooth_spectral(pg, ridge_factor=1e-3)
    assert est.ridge == pytest.approx(1e-3 * pg.mean())
    assert np.all(est.values >= est.ridge)
    assert est.ridge > 0


def test_scale_equivariance():
    rng = np.random.default_rng(6)
    pg = rng.exponential(size=200)
    a = smooth_spectral(pg)
    b = smooth_spectral(7.3 * pg)
    assert np.max(np.abs(b.values - 7.3 * a.values)) < 1e-10 * np.max(b.values)


def test_flat_kernel_locality():
    # output at a target bin only sees periodogram values within the window
    T = 256
    b = 32 / T
    half = 16
    rng = np.random.default_rng(7)
    pg = rng.exponential(size=T) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        base = smooth_spectral(pg, KernelSpec("daniell", b), ridge_factor=0.0)
        target = 100
        far = pg.copy()
        far[(target + half + 5) % T] += 50.0
        bumped = smooth_spectral(far, KernelSpec("daniell", b), ridge_factor=0.0)
    assert bumped.values[target] == pytest.approx(base.values[target], rel=1e-12)
    assert bumped.values[(target + half + 5) % T] > base.values[(target + half + 5) % T]


def _direct_smooth(pg, weights):
    """fhat_k = sum_j W(j) I_{k+j mod T}, one np.roll per offset."""
    H = weights.size // 2
    return sum(weights[H + j] * np.roll(pg, -j) for j in range(-H, H + 1))


def _half(v, T):
    """Entries k = 0..T//2 of an array in k = 1..T order (last axis)."""
    return np.concatenate([v[..., -1:], v[..., :T // 2]], axis=-1)


def _model1_periodogram(T, stream):
    x = generate(model_preset("model1", T), GeneratorConfig(T=T, rng=RngStream(15, stream)))
    return np.abs(dft_canonical(x)) ** 2


@pytest.mark.parametrize("kind", ["daniell", "bartlett"])
# at T=230 the default window has H=18, so the transform length is
# _fast_length(266) = 270; the 5-smooth 250 in [T + H, T + 2H) = [248, 266)
# is too short and would wrap the convolution's tail onto its output. The half
# smoother's mirrored pads reach k = H and T - h - H, its bounds at odd T and
# the widest window (T = 33: H = 7, h = 16).
@pytest.mark.parametrize("T", [33, 64, 230, 257, 4093, 4096])
@pytest.mark.parametrize("b", [None, 0.45])  # default and the widest window
def test_smoothing_matches_direct_circular_sum(kind, T, b):
    pg = _model1_periodogram(T, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        est = smooth_spectral(pg, KernelSpec(kind, b), ridge_factor=0.0)
        weights = _kernel_weights(kind, est.kernel.bandwidth, T)
    direct = _direct_smooth(pg, weights)
    assert np.max(np.abs(est.values - direct) / direct) < 1e-13
    half = smooth_half(_half(pg, T), T, weights, 0.0)
    assert np.max(np.abs(half - _half(direct, T)) / _half(direct, T)) < 1e-13


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
    _, weights = _smoother(KernelSpec("bartlett"), T, 1e-3)
    block, ridges = _smooth_rows(pg, weights, 1e-3)
    half = smooth_half(_half(pg, T), T, weights, 1e-3)
    for i in range(7):
        row, ridge = _smooth_rows(pg[i], weights, 1e-3)
        assert np.array_equal(block[i], row)
        assert np.array_equal(ridges[i], ridge)
        assert np.array_equal(half[i], smooth_half(_half(pg[i], T), T, weights, 1e-3))


@pytest.mark.parametrize("T", [64, 257])
def test_half_smoother_floors_at_the_full_circle_ridge(T):
    # a ridge of half the mean periodogram lies above the smoothed AR(1)
    # spectrum at high frequencies, so the floor binds there
    pg = _model1_periodogram(T, 0)
    _, weights = _smoother(None, T, 0.5)
    full, ridge = _smooth_rows(pg, weights, 0.5)
    assert np.any(_half(full, T) == ridge)
    half = smooth_half(_half(pg, T), T, weights, 0.5)
    assert np.max(np.abs(half - _half(full, T)) / _half(full, T)) < 1e-13


def test_white_noise_estimate_tracks_flat_spectrum():
    T = 1024
    avg = np.zeros(T)
    for i in range(100):
        pg = np.abs(dft_canonical(gauss_stream(RngStream(14, i), T))) ** 2
        avg += smooth_spectral(pg).values
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
        est = smooth_spectral(np.abs(dft_canonical(x)) ** 2)
        rmse += np.sqrt(np.mean((est.values - f_true) ** 2 / f_true ** 2))
    assert rmse / 100 <= 0.15


def test_bandwidth_warning_band():
    T = 512
    pg = np.ones(T)
    # inside (T^-1/2, T^-1/4): silent
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandwidthWarning)
        smooth_spectral(pg, KernelSpec("daniell", T ** (-1 / 3)))
        smooth_spectral(pg)  # automatic default is inside the band
    # outside: warns but still computes
    with pytest.warns(BandwidthWarning):
        smooth_spectral(pg, KernelSpec("daniell", 0.3))
    with pytest.warns(BandwidthWarning):
        smooth_spectral(pg, KernelSpec("daniell", 0.02))


def test_bandwidth_too_small_is_an_error():
    with pytest.raises(BandwidthTooSmallError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BandwidthWarning)
            smooth_spectral(np.ones(64), KernelSpec("daniell", 0.04))  # b*T = 2.56


def test_kernel_spec_validation():
    with pytest.raises(InvalidInputError):
        KernelSpec("hann")
    with pytest.raises(InvalidInputError):
        KernelSpec("daniell", 0.6)
    with pytest.raises(InvalidInputError):
        KernelSpec("daniell", 0.0)


def test_kernel_weights_sum_to_one():
    for kind in ("daniell", "bartlett"):
        w = _kernel_weights(kind, 0.1, 200)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)
        assert np.array_equal(w, w[::-1])  # symmetric


def test_smooth_spectral_input_validation():
    with pytest.raises(InvalidInputError):
        smooth_spectral(np.ones((4, 4)))
    with pytest.raises(InvalidInputError):
        smooth_spectral(np.ones(64), ridge_factor=-0.1)
