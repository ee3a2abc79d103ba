import numpy as np
import pytest

from dftstat import (
    ArmaSpec,
    ChangepointArSpec,
    GeneratorConfig,
    InvalidInputError,
    ModulatedNoiseSpec,
    RngStream,
    StabilityError,
    TvInnovationArSpec,
    gauss_stream,
    generate,
    local_spectrum,
    model_preset,
    spec_from_dict,
)
from dftstat.simulate import _arma_spectrum_fn, innovation_count


def ar1_spectrum(a, w):
    return (1 / (2 * np.pi)) / np.abs(1 - a * np.exp(1j * np.asarray(w))) ** 2


# ---------------------------------------------------------------------------
# presets and the piecewise scale table
# ---------------------------------------------------------------------------


def test_piecewise_scale_lookup():
    # bin [6/20, 7/20) holds level 3, bin [5/20, 6/20) holds level 1
    sigma_piecewise6 = model_preset("model6").sigma
    assert sigma_piecewise6(0.3) == 3.0
    assert sigma_piecewise6(0.27) == 1.0
    assert sigma_piecewise6(0.25) == 1.0
    assert sigma_piecewise6(0.0) == 3.0
    assert sigma_piecewise6(0.45) == 2.0
    assert sigma_piecewise6(1.0) == 2.0  # closed right end of the last bin
    vals = sigma_piecewise6(np.linspace(0, 1, 2001))
    assert set(np.unique(vals)) == {1.0, 2.0, 3.0}


def test_model1_stationary_variance():
    spec = model_preset("model1", 512)
    x = generate(spec, GeneratorConfig(T=100_000, burn_in=500, rng=RngStream(40, 0)))
    assert np.var(x) == pytest.approx(1 / (1 - 0.64), abs=0.05)


def test_model2_preset_is_stationary():
    spec = model_preset("model2", 512)
    spec.validate()  # AR polynomial 1 - z + 0.7 z^2 has roots outside the circle
    x = generate(spec, GeneratorConfig(T=4096, rng=RngStream(41, 0)))
    assert np.all(np.isfinite(x))
    assert np.std(x) < 50


def test_model4_scale_depends_on_length():
    # the 512-sample period is fixed, so T = 256 sees only half a cycle
    s512 = model_preset("model4", 512).sigma
    s256 = model_preset("model4", 256).sigma
    assert s512(0.25) == pytest.approx(0.5 + 1.0, abs=1e-12)
    assert s256(0.25) == pytest.approx(0.5 + np.sin(np.pi / 4) + 0.3 * np.cos(np.pi / 4),
                                       abs=1e-12)


def test_unknown_preset():
    with pytest.raises(InvalidInputError):
        model_preset("model9", 512)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generation_deterministic():
    spec = model_preset("model3", 256)
    cfg = GeneratorConfig(T=256, rng=RngStream(42, 5))
    assert np.array_equal(generate(spec, cfg), generate(spec, cfg))


def test_distinct_streams_differ():
    spec = model_preset("model1", 256)
    a = generate(spec, GeneratorConfig(T=256, rng=RngStream(42, 0)))
    b = generate(spec, GeneratorConfig(T=256, rng=RngStream(42, 1)))
    assert not np.array_equal(a, b)


def test_explosive_ar_rejected_with_root_modulus():
    # the sign pattern 1 - z - 0.7 z^2 has a root inside the unit circle
    bad = ArmaSpec(ar=(1.0, 0.7))
    with pytest.raises(StabilityError) as err:
        generate(bad, GeneratorConfig(T=64, burn_in=0, rng=RngStream(1, 0)))
    assert err.value.root_modulus == pytest.approx(0.678, abs=1e-3)
    # the unsafe flag overrides the check
    x = generate(bad, GeneratorConfig(T=32, burn_in=0, rng=RngStream(1, 0)), unsafe=True)
    assert np.all(np.isfinite(x))


def test_changepoint_matches_loop_oracle():
    spec = ChangepointArSpec(segments=((0.75, (1.5, -0.75)), (1.0, (0.8,))))
    T, burn = 240, 50
    eps = gauss_stream(RngStream(43, 0), T + burn)
    got = generate(spec, GeneratorConfig(T=T, burn_in=burn, rng=RngStream(43, 0)),
                   innovations=eps)

    # direct recursion with the coefficient switch after floor(0.75 T)
    switch = int(np.floor(0.75 * T))
    full = np.zeros(T + burn)
    for i in range(T + burn):
        t = i - burn + 1  # 1-based index within the kept range
        e = eps[i]
        if t <= switch:
            x1 = full[i - 1] if i >= 1 else 0.0
            x2 = full[i - 2] if i >= 2 else 0.0
            full[i] = 1.5 * x1 - 0.75 * x2 + e
        else:
            full[i] = 0.8 * full[i - 1] + e
    assert np.allclose(got, full[burn:], atol=1e-10)


def test_changepoint_first_segment_matches_pure_ar():
    spec = ChangepointArSpec(segments=((0.5, (0.8,)), (1.0, (0.6,))))
    plain = ArmaSpec(ar=(0.8,))
    T, burn = 128, 100
    eps = gauss_stream(RngStream(44, 0), T + burn)
    cfg = GeneratorConfig(T=T, burn_in=burn, rng=RngStream(44, 0))
    a = generate(spec, cfg, innovations=eps)
    b = generate(plain, cfg, innovations=eps)
    assert np.allclose(a[:64], b[:64], atol=1e-12)
    assert not np.allclose(a[64:], b[64:])


def test_burn_in_doubling_leaves_output_unchanged():
    # with the same trailing innovations, the extra history decays away
    # geometrically, so doubling the burn-in does not move the kept sample
    spec = model_preset("model1", 512)
    T = 512
    eps = gauss_stream(RngStream(45, 0), 1000 + T)
    long = generate(spec, GeneratorConfig(T=T, burn_in=1000, rng=RngStream(45, 0)),
                    innovations=eps)
    short = generate(spec, GeneratorConfig(T=T, burn_in=500, rng=RngStream(45, 0)),
                     innovations=eps[500:])
    assert np.allclose(long, short, atol=1e-12)


def test_modulated_noise_elementwise():
    spec = ModulatedNoiseSpec(sigma=lambda u: 1.0 + u)
    T = 64
    eps = gauss_stream(RngStream(46, 0), T)
    cfg = GeneratorConfig(T=T, burn_in=500, rng=RngStream(46, 0))
    assert innovation_count(spec, cfg) == T  # burn-in not consumed
    got = generate(spec, cfg, innovations=eps)
    u = np.arange(1, T + 1) / T
    assert np.array_equal(got, (1.0 + u) * eps)


def test_modulated_noise_requires_positive_scale():
    with pytest.raises(InvalidInputError):
        generate(ModulatedNoiseSpec(sigma=lambda u: np.cos(2 * np.pi * u)),
                 GeneratorConfig(T=64, rng=RngStream(0, 0)))


def test_tv_innovation_scale_may_change_sign():
    # model4's smooth scale dips below zero; only its square matters
    spec = model_preset("model4", 512)
    x = generate(spec, GeneratorConfig(T=512, rng=RngStream(47, 0)))
    assert np.all(np.isfinite(x))


def test_innovation_length_validation():
    spec = model_preset("model1", 512)
    cfg = GeneratorConfig(T=64, burn_in=10, rng=RngStream(0, 0))
    with pytest.raises(InvalidInputError):
        generate(spec, cfg, innovations=np.zeros(64))  # needs 74


def test_generator_config_validation():
    with pytest.raises(InvalidInputError):
        GeneratorConfig(T=16)
    with pytest.raises(InvalidInputError):
        GeneratorConfig(T=64, burn_in=-1)


def test_segment_fraction_validation():
    with pytest.raises(InvalidInputError):
        ChangepointArSpec(segments=((0.8, (0.5,)), (0.4, (0.2,)))).validate()
    with pytest.raises(InvalidInputError):
        ChangepointArSpec(segments=((0.5, (0.5,)),)).validate()  # must end at 1.0


# ---------------------------------------------------------------------------
# local spectra
# ---------------------------------------------------------------------------


def test_local_spectrum_stationary_ar1():
    f = local_spectrum(ArmaSpec(ar=(0.8,)))
    w = np.linspace(0, 2 * np.pi, 9)
    for u in (0.0, 0.3, 1.0):
        assert np.allclose(f(u, w), ar1_spectrum(0.8, w), atol=1e-14)


def test_local_spectrum_flat_noise():
    f = local_spectrum(ModulatedNoiseSpec(sigma=lambda u: np.ones_like(np.asarray(u, float))))
    w = np.linspace(0, 2 * np.pi, 7)
    assert np.allclose(f(0.4, w), 1 / (2 * np.pi), atol=1e-14)


def test_local_spectrum_model4_hand_value():
    # at u = 1/4 with the 512-point parameterization the scale is 3/2
    f = local_spectrum(model_preset("model4", 512))
    w = np.linspace(0.1, 3.0, 5)
    assert np.allclose(f(0.25, w), 1.5 ** 2 * ar1_spectrum(0.8, w), rtol=1e-12)


def test_local_spectrum_changepoint_switches_with_u():
    f = local_spectrum(model_preset("model5", 512))
    w = np.array([0.0, 1.0, np.pi])
    assert np.allclose(f(0.3, w), ar1_spectrum(0.8, w), atol=1e-14)
    assert np.allclose(f(0.5, w), ar1_spectrum(0.8, w), atol=1e-14)  # switch after 0.5T
    assert np.allclose(f(0.7, w), ar1_spectrum(0.6, w), atol=1e-14)


def changepoint_spectrum_masked(spec, u, omega):
    """Local spectrum of a change-point spec gathered point by point: each
    segment's AR spectrum evaluated on the grid points of its u-range."""
    fracs = np.array([frac for frac, _ in spec.segments])
    fns = [_arma_spectrum_fn(ar, ()) for _, ar in spec.segments]
    uu, ww = np.broadcast_arrays(np.atleast_1d(np.asarray(u, dtype=float)),
                                 np.asarray(omega, dtype=float))
    seg = np.clip(np.searchsorted(fracs, uu, side="left"), 0, len(fns) - 1)
    out = np.empty(uu.shape)
    for j, fn in enumerate(fns):
        mask = seg == j
        out[mask] = fn(ww[mask])
    return out


@pytest.mark.parametrize("spec", [
    model_preset("model3", 512),
    model_preset("model5", 512),
    ChangepointArSpec(segments=((0.2, (0.5,)), (0.5, (-0.3, 0.2)), (1.0, ()))),
])
def test_local_spectrum_changepoint_equals_masked_evaluation(spec):
    f = local_spectrum(spec)
    u = np.linspace(0, 1, 257)
    w = np.linspace(0, 2 * np.pi, 513)
    for args in ((u[:, None], w[None, :]), (0.3, w), (0.75, w), (1.0, w), (u, 1.0),
                 (0.5, 2.0)):
        got, want = f(*args), changepoint_spectrum_masked(spec, *args)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_local_spectrum_broadcasts():
    f = local_spectrum(model_preset("model6", 512))
    u = np.linspace(0, 1, 11)[:, None]
    w = np.linspace(0, 2 * np.pi, 13)[None, :]
    vals = f(u, w)
    assert vals.shape == (11, 13)
    assert np.allclose(vals, model_preset("model6").sigma(u) ** 2 / (2 * np.pi) * np.ones((1, 13)))


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------


def test_spec_from_dict_families():
    s1 = spec_from_dict({"family": "ar_ma", "ar": [0.8], "ma": [0.3]})
    assert isinstance(s1, ArmaSpec) and s1.ar == (0.8,)
    s2 = spec_from_dict({"family": "changepoint_ar",
                         "segments": [[0.5, [0.8]], [1.0, [0.6]]]})
    assert isinstance(s2, ChangepointArSpec)
    s3 = spec_from_dict({"family": "tv_innovation_ar", "ar": [0.8],
                         "sigma": {"kind": "harmonic", "const": 0.5, "sin": 1.0,
                                   "cos": 0.3, "cycles": 1.0}})
    assert isinstance(s3, TvInnovationArSpec)
    assert s3.sigma(0.25) == pytest.approx(1.5)
    s4 = spec_from_dict({"family": "modulated_noise",
                         "sigma": {"kind": "piecewise", "breaks": [0.5],
                                   "values": [1.0, 2.0]}})
    assert isinstance(s4, ModulatedNoiseSpec)
    assert s4.sigma(np.array([0.2, 0.7])).tolist() == [1.0, 2.0]


def test_spec_from_dict_errors():
    with pytest.raises(InvalidInputError):
        spec_from_dict({"family": "nope"})
    with pytest.raises(InvalidInputError):
        spec_from_dict({"family": "modulated_noise", "sigma": {"kind": "wat"}})
    with pytest.raises(InvalidInputError):
        spec_from_dict({"family": "modulated_noise",
                        "sigma": {"kind": "piecewise", "breaks": [0.5, 0.4],
                                  "values": [1, 2, 3]}})
