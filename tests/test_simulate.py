import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dftstat
import dftstat.simulate as simulate
from dftstat import (
    ArmaSpec,
    ChangepointArSpec,
    GeneratorConfig,
    InputError,
    ModulatedNoiseSpec,
    RngStream,
    TvInnovationArSpec,
    generate,
    local_spectrum,
    model_preset,
    spec_from_dict,
)
from dftstat.numerics import _gauss_rows
from dftstat.simulate import (
    _arma_spectrum_fn,
    _filter_rows,
    _min_root_modulus,
    innovation_count,
)


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
    assert sigma_piecewise6(-0.5) == 3.0 and sigma_piecewise6(1.5) == 2.0  # clamped bins
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
    with pytest.raises(InputError, match="^unknown model 'model9'; presets are model1, "):
        model_preset("model9", 512)


@pytest.mark.parametrize("T", [0, -512, 2.5, float("nan"), float("inf")])
def test_preset_rejects_a_T_that_is_not_a_positive_integer(T):
    for name in ("model1", "model4", "model6"):
        with pytest.raises(InputError, match="positive integer"):
            model_preset(name, T)


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
    with pytest.raises(InputError, match=r"root of modulus (\S+) on or inside the unit circle$") as err:
        generate(bad, GeneratorConfig(T=64, burn_in=0, rng=RngStream(1, 0)))
    modulus = float(re.search(r"root of modulus (\S+) ", str(err.value)).group(1))
    assert modulus == pytest.approx(0.678, abs=1e-3)


def test_non_finite_ar_coefficients_rejected_with_context():
    nan = float("nan")
    cases = ((ArmaSpec(ar=(nan,)), "ArmaSpec"),
             (ArmaSpec(ar=(0.5, float("inf"))), "ArmaSpec"),
             (ChangepointArSpec(segments=((0.5, (0.8,)), (1.0, (nan, 0.1)))),
              "segment ending at 1.0"),
             (TvInnovationArSpec(ar=(nan,), sigma=np.ones_like), "TvInnovationArSpec"))
    for spec, context in cases:
        with pytest.raises(InputError, match=f"^{context}: AR coefficients must be finite"):
            spec.validate()


def test_root_modulus_equals_the_direct_roots():
    rng = np.random.default_rng(5)
    cases = [(0.8,), (1.0, -0.7), (1.5, -0.75), (1.0, 0.7), (0.5, 0.0), (0.0, 0.5)]
    cases += [tuple(rng.uniform(-1.5, 1.5, p)) for p in (1, 2, 3, 5) for _ in range(5)]
    for ar in cases:
        direct = np.roots(np.concatenate([-np.array(ar[::-1]), [1.0]]))
        assert _min_root_modulus(ar) == pytest.approx(np.min(np.abs(direct)), rel=1e-12)
    assert _min_root_modulus(()) == _min_root_modulus((0.0, 0.0)) == np.inf
    # 1 - 0.5 z - 1e-310 z^2 has roots near 2 and -5e309: stable, and dividing
    # by the z^2 coefficient would overflow
    ArmaSpec(ar=(0.5, 1e-310)).validate()
    assert _min_root_modulus((0.5, 1e-310)) == pytest.approx(2.0, rel=1e-12)


def test_changepoint_matches_loop_oracle():
    # direct recursion with the coefficients switching after floor(frac T);
    # the order-20 segment reads 20 past outputs at its switch
    cases = [(((0.75, (1.5, -0.75)), (1.0, (0.8,))), 240, 50, 43),
             (((0.5, (0.5,)), (1.0, (0.0,) * 19 + (0.5,))), 128, 50, 46)]
    for segments, T, burn, seed in cases:
        spec = ChangepointArSpec(segments=segments)
        eps = RngStream(seed, 0).generator().standard_normal(T + burn)
        got = generate(spec, GeneratorConfig(T=T, burn_in=burn, rng=RngStream(seed, 0)))
        switches = [int(np.floor(frac * T)) for frac, _ in segments]
        full = np.zeros(T + burn)
        for i in range(T + burn):
            t = i - burn + 1  # 1-based index within the kept range
            ar = next(ar for switch, (_, ar) in zip(switches, segments) if t <= switch)
            full[i] = eps[i] + sum(a * full[i - j] for j, a in enumerate(ar, 1) if i >= j)
        assert np.allclose(got, full[burn:], atol=1e-10)


def test_changepoint_first_segment_matches_pure_ar():
    spec = ChangepointArSpec(segments=((0.5, (0.8,)), (1.0, (0.6,))))
    plain = ArmaSpec(ar=(0.8,))
    T, burn = 128, 100
    cfg = GeneratorConfig(T=T, burn_in=burn, rng=RngStream(44, 0))
    a = generate(spec, cfg)
    b = generate(plain, cfg)
    assert np.allclose(a[:64], b[:64], atol=1e-12)
    assert not np.allclose(a[64:], b[64:])


def ma_rows(spec, eps):
    """v_t = e_t + sum_j c_j e_{t-j} over whole rows, the terms added in order
    of j and the zero ones skipped."""
    v = eps.copy()
    for j, c in enumerate(spec.ma, start=1):
        if c:
            v[:, j:] += c * eps[:, :-j]
    return v


@pytest.mark.parametrize("piece", [1, 7, 120, 2 ** 14])
def test_ma_pass_in_pieces_equals_whole_rows_bit_for_bit(piece, monkeypatch):
    # pieces of one column, of fewer columns than the MA order, of a few
    # columns, and the whole block; the AR solve that follows is the same code
    monkeypatch.setattr("dftstat.simulate._MA_PIECE", piece)
    long_ma = ArmaSpec(ar=(0.5,), ma=(0.4, -1.0, 0.0, 0.7, 0.2, -0.3, 1.1))
    for spec, rows, n in ((model_preset("model2", 512), 40, 1012), (long_ma, 3, 1012),
                          (long_ma, 2, 5)):
        eps = _gauss_rows(piece, 0, rows, n)
        want = _filter_rows(ArmaSpec(ar=spec.ar), ma_rows(spec, eps), n, 0)
        assert _filter_rows(spec, eps, n, 0).tobytes() == want.tobytes(), (spec, rows, n)


def test_burn_in_doubling_leaves_output_unchanged():
    # with the same trailing innovations, the extra history decays away
    # geometrically, so doubling the burn-in does not move the kept sample
    spec = model_preset("model1", 512)
    T = 512
    eps = RngStream(45, 0).generator().standard_normal(1000 + T)[None, :]
    long = _filter_rows(spec, eps.copy(), T, 1000)  # it overwrites its input
    short = _filter_rows(spec, eps[:, 500:], T, 500)
    assert np.allclose(long, short, atol=1e-12)


def test_modulated_noise_elementwise():
    spec = ModulatedNoiseSpec(sigma=lambda u: 1.0 + u)
    T = 64
    eps = RngStream(46, 0).generator().standard_normal(T)
    cfg = GeneratorConfig(T=T, burn_in=500, rng=RngStream(46, 0))
    assert innovation_count(spec, cfg) == T  # burn-in not consumed
    got = generate(spec, cfg)
    u = np.arange(1, T + 1) / T
    assert np.array_equal(got, (1.0 + u) * eps)


def test_modulated_noise_requires_positive_scale():
    with pytest.raises(InputError, match=r"^modulated-noise sigma must be positive on \[0, 1\]$"):
        generate(ModulatedNoiseSpec(sigma=lambda u: np.cos(2 * np.pi * u)),
                 GeneratorConfig(T=64, rng=RngStream(0, 0)))


def test_modulated_noise_sigma_that_writes_into_its_argument_validates():
    # sigma gets a copy of the probe grid: writing into it changes neither this
    # check nor the next one, and the grid stays 1025 points of [0, 1]
    def sigma(u):
        u -= 0.75  # were the grid shared, the second check would see u < 0
        return u + 1.0

    spec = ModulatedNoiseSpec(sigma=sigma)
    spec.validate()
    spec.validate()
    assert np.array_equal(simulate._SIGMA_PROBE, np.linspace(0.0, 1.0, 1025))


def test_tv_innovation_scale_may_change_sign():
    # model4's smooth scale dips below zero; only its square matters
    spec = model_preset("model4", 512)
    x = generate(spec, GeneratorConfig(T=512, rng=RngStream(47, 0)))
    assert np.all(np.isfinite(x))


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_memory_stays_near_its_output():
    # the banded solve walks the columns in pieces and overwrites the
    # innovations; one band over the whole row of AR(20) traced 22x the output
    generate(ArmaSpec(ar=(0.5,)), GeneratorConfig(T=64))  # loads scipy.linalg first
    T = 2 ** 20
    x, peak = traced_peak(generate, ArmaSpec(ar=(0.04,) * 20), GeneratorConfig(T=T))
    assert peak <= 1.5 * x.nbytes
    for name in ("model1", "model2", "model3", "model4", "model5"):
        E = _gauss_rows(7, 0, 64, 1012)
        _, peak = traced_peak(_filter_rows, model_preset(name, 512), E, 512, 500)
        assert peak <= 4 * E.nbytes, name


_BLOCK_HASHES = """
import hashlib
from dftstat import ArmaSpec, model_preset
from dftstat.numerics import _gauss_rows
from dftstat.simulate import _filter_rows
for spec in (ArmaSpec(ar=(1.5, -0.75)), model_preset("model3", 512)):
    X = _filter_rows(spec, _gauss_rows(9, 0, 64, 1012), 512, 500)
    print(hashlib.sha256(X.tobytes()).hexdigest())
"""


def test_blocks_do_not_depend_on_the_blas_thread_count():
    env = dict(os.environ, PYTHONPATH=str(Path(dftstat.__file__).resolve().parents[1]))
    hashes = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _BLOCK_HASHES],
                              env=dict(env, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]


def test_generator_config_validation():
    with pytest.raises(InputError, match="^T must be >= 32, got 16$"):
        GeneratorConfig(T=16)
    with pytest.raises(InputError, match="^burn_in must be >= 0, got -1$"):
        GeneratorConfig(T=64, burn_in=-1)


def test_segment_fraction_validation():
    with pytest.raises(InputError, match=r"^segment fractions must increase strictly within \(0, 1\], got 0\.4$"):
        ChangepointArSpec(segments=((0.8, (0.5,)), (0.4, (0.2,)))).validate()
    with pytest.raises(InputError, match="^the last segment fraction must be 1.0$"):
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


@pytest.mark.parametrize("name", ["model1", "model2", "model6"])
def test_local_spectrum_returns_read_only_views_of_the_same_values(name):
    spec = model_preset(name, 512)
    f = local_spectrum(spec)
    u = np.linspace(0, 1, 257)
    w = np.linspace(0, 2 * np.pi, 513)
    for uu, ww in ((u[:, None], w[None, :]), (0.3, w), (u, 1.0)):
        if name == "model6":
            varying, other = spec.sigma(np.asarray(uu)) ** 2 / (2 * np.pi), ww
        else:
            varying, other = _arma_spectrum_fn(spec.ar, spec.ma)(ww), uu
        want = np.broadcast_arrays(varying, np.asarray(other, dtype=float))[0]
        vals = f(uu, ww)
        assert vals.shape == want.shape and np.array_equal(vals, want)
        with pytest.raises(ValueError):
            vals[...] = 1.0


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
    with pytest.raises(InputError, match="^unknown model family 'nope'$"):
        spec_from_dict({"family": "nope"})
    with pytest.raises(InputError, match="^unknown sigma kind 'wat'$"):
        spec_from_dict({"family": "modulated_noise", "sigma": {"kind": "wat"}})
    with pytest.raises(InputError, match="^piecewise sigma breaks must increase strictly inside"):
        spec_from_dict({"family": "modulated_noise",
                        "sigma": {"kind": "piecewise", "breaks": [0.5, 0.4],
                                  "values": [1, 2, 3]}})
