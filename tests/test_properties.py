"""Property-based checks. ``conftest.py`` loads the suite's hypothesis
profile, so every run draws the same examples."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dftstat import (  # noqa: E402
    PRESET_NAMES,
    BandwidthWarning,
    InputError,
    chisq_quantile,
    local_spectrum,
    model_preset,
    power_profile,
    stationarity_test,
)
from dftstat.cli import main  # noqa: E402
from dftstat.experiments import (  # noqa: E402
    _eval_local,
    _time_average,
    _u_fourier,
)
from dftstat.numerics import (  # noqa: E402
    _chisq_quantile,
    _fast_length,
    _half_dft_rows,
    _takes_chirp,
)
from dftstat import simulate  # noqa: E402
from dftstat.simulate import (  # noqa: E402
    ArmaSpec,
    ChangepointArSpec,
    TvInnovationArSpec,
    _filter_rows,
    _min_root_modulus,
)
from dftstat.stattest import (  # noqa: E402
    _plan,
    _scan_rows,
    validate_lags,
)
from pipeline_oracle import (  # noqa: E402
    block_covariances,
    lag_covariances,
    pipeline_input,
)

PRESETS = ("model1", "model2", "model3", "model4", "model5", "model6")


def power_profile_evaluating_every_shift(f_local, lags, T, u_points, omega_points):
    """``power_profile`` with fbar(w + 2 pi r / T) evaluated on the grid for
    every lag, whether or not the shift is whole grid steps."""
    u = np.linspace(0.0, 1.0, u_points)
    w = np.linspace(0.0, 2 * math.pi, omega_points)
    vals = _eval_local(f_local, u, w)
    fbar = _time_average(vals)
    shifted = np.array([
        _time_average(_eval_local(f_local, u, (w + 2 * math.pi * r / T) % (2 * math.pi)))
        for r in lags])
    integrand = _u_fourier(vals, lags) / (np.sqrt(fbar) * np.sqrt(shifted))
    return np.trapezoid(integrand, w, axis=-1) / (2 * math.pi)


@st.composite
def shift_cases(draw):
    T = draw(st.integers(2, 2048))
    omega_points = draw(st.integers(256, 1025))
    # a multiple of T / gcd(T, omega_points - 1) is a whole-step shift
    step = T // math.gcd(T, omega_points - 1)
    size = st.one_of(st.integers(1, 3 * T), st.integers(1, 3 * T // step).map(lambda k: k * step))
    lags = draw(st.lists(st.tuples(st.sampled_from((-1, 1)), size).map(math.prod),
                         min_size=1, max_size=4))
    return draw(st.sampled_from(PRESETS)), draw(st.booleans()), T, omega_points, lags


def tilted(f):
    """f times 2 + sin(w): not even in w, so B depends on the shift's sign."""
    return lambda u, w: f(u, w) * (2.0 + np.sin(w))


@settings(max_examples=100)
@given(shift_cases())
def test_power_profile_equals_evaluating_every_shift(case):
    name, tilt, T, omega_points, lags = case
    f = local_spectrum(model_preset(name, 512))
    if tilt:
        f = tilted(f)
    got = power_profile(f, lags, u_points=129, omega_points=omega_points, T=T).B_values
    want = power_profile_evaluating_every_shift(f, lags, T, 129, omega_points)
    # models 1 and 2 have B = 0, up to rounding of the O(1) integrand
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)) + 1e-15


# ---------------------------------------------------------------------------
# the covariance kernel's routes and the block pipeline
# ---------------------------------------------------------------------------


def modulated_rows(rows, T, seed):
    """rows variance-modulated noise series, so low lags carry covariance."""
    scale = 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(1, T + 1) / T)
    return np.random.default_rng(seed).standard_normal((rows, T)) * scale


@st.composite
def kernel_cases(draw, lengths, rows):
    """(rows, T, lags, seed): T from ``lengths``, up to 12 valid lags of it
    (any order, repeats allowed), lags above T/2 included."""
    T = draw(lengths)
    lag = st.integers(1, T - 1).filter(lambda r: 2 * r != T)
    return (draw(rows), T, tuple(draw(st.lists(lag, min_size=1, max_size=12))),
            draw(st.integers(0, 2 ** 32 - 1)))


# 5-smooth lengths, which the kernel runs on its transforms, and any others
LENGTHS = st.one_of(st.integers(32, 5000).map(_fast_length).filter(lambda T: T <= 5000),
                    st.integers(32, 5000))


@settings(max_examples=150)
@given(kernel_cases(LENGTHS, st.integers(1, 3)))
def test_the_kernel_routes_agree(case):
    rows, T, lags, seed = case
    Zh = _half_dft_rows(modulated_rows(rows, T, seed), demean=True)
    by_transform = lag_covariances(Zh.copy(), T, lags, transform=True)
    by_loop = lag_covariances(Zh.copy(), T, lags, transform=False)
    assert np.max(np.abs(by_transform - by_loop)) <= 1e-13 * np.max(np.abs(by_loop))


# 16381, 8209 and 20011 (primes above 2**13) take the chirp-z DFT; at 20011 the
# loop route's half-circle sums run past einsum's 8192-point pieces
@settings(max_examples=60)
@given(kernel_cases(st.one_of(LENGTHS, st.sampled_from((8209, 16381, 20011))),
                    st.integers(2, 4)),
       st.booleans())
def test_a_block_equals_its_rows(case, demean):
    rows, T, lags, seed = case
    X = modulated_rows(rows, T, seed)
    plan = _plan(T, lags, None, None, None, 1e-3, demean)
    block = block_covariances(X, plan, _scan_rows(X)[1])
    for i in range(rows):
        row = X[i:i + 1]
        assert np.array_equal(block[i], block_covariances(row, plan, _scan_rows(row)[1])[0])


def next_prime(n):
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


@st.composite
def chirp_lengths(draw):
    """T = c * p for a prime p above 2**13 and c in 1..8, T below 70000: odd
    and even lengths that take the chirp-z DFT."""
    c = draw(st.integers(1, 8))
    return c * next_prime(draw(st.integers(2 ** 13 + 1, 70000 // c - 100)))


@settings(max_examples=25)
@given(chirp_lengths(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_the_chirp_dft_equals_numpys_rfft(T, rows, seed):
    assert _takes_chirp(T)
    x = np.random.default_rng(seed).standard_normal((rows, T))
    want = np.fft.rfft(np.roll(x, 1, axis=-1), axis=-1) / math.sqrt(2 * math.pi * T)
    got = _half_dft_rows(x)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# lag validation and the memoized helpers
# ---------------------------------------------------------------------------


def validate_lags_by_loop(lags, T):
    """``validate_lags`` as a per-lag loop; a lag that int() cannot convert
    (NaN, inf, None) counts as not an integer."""
    out = []
    for r in lags:
        try:
            integral = int(r) == r
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise InputError(f"lag must be an integer, got {r!r}")
        r = int(r)
        if r < 1 or r > T - 1:
            raise InputError(f"lag {r} outside the valid range 1..{T - 1}")
        if T % 2 == 0 and r == T // 2:
            raise InputError(f"lag {r} equals T/2 and is excluded for T={T}")
        out.append(r)
    if not out:
        raise InputError("at least one lag is required")
    return tuple(out)


def outcome(validate, lags, T):
    try:
        out = validate(lags, T)
    except InputError as exc:
        return InputError, str(exc)
    assert all(type(r) is int for r in out)
    return out


@st.composite
def lag_cases(draw):
    T = draw(st.integers(2, 600))
    r = st.integers(-2, T + 2)
    as_lag = st.sampled_from((int, np.int64, np.int32, float, np.float64, Fraction))
    lag = st.one_of(
        st.tuples(as_lag, r).map(lambda c: c[0](c[1])),
        st.just(T // 2),
        st.fractions(-2, T + 2, max_denominator=4),
        st.floats(-2, T + 2),
        st.sampled_from((math.nan, math.inf, -math.inf, None, np.float64(math.nan))),
    )
    valid = st.tuples(as_lag, st.integers(1, T - 1)).map(lambda c: c[0](c[1]))
    return T, draw(st.one_of(st.lists(lag, max_size=6), st.lists(valid, max_size=40)))


@settings(max_examples=400)
@given(lag_cases())
def test_validate_lags_equals_the_per_lag_loop(case):
    T, lags = case
    assert outcome(validate_lags, lags, T) == outcome(validate_lags_by_loop, lags, T)


def cold_and_warm(helper, calls):
    """Call a memoized helper on each argument tuple in turn from an empty
    cache, so repeats are warm; each value must equal the uncached one."""
    helper.cache_clear()
    for args in calls:
        want = helper.__wrapped__(*args)
        assert helper(*args) == want
        assert helper(*args) == want  # warm


# small pools, so a list of calls repeats and mixes its arguments
@settings(max_examples=50)
@given(st.lists(st.tuples(st.one_of(st.sampled_from((0.0, 0.5, 0.9, 0.95, 0.99)),
                                    st.floats(0.0, 0.999999)),
                          st.integers(1, 4) | st.integers(1, 60)), max_size=12))
def test_chisq_quantile_memoized_equals_uncached(calls):
    cold_and_warm(_chisq_quantile, calls)
    for p, dof in calls:  # the public function reads the same cache
        assert chisq_quantile(p, dof) == _chisq_quantile.__wrapped__(p, dof)


coefficient = st.one_of(st.sampled_from((0.0, 0.5, -0.5, 0.8, 1.5, -0.75, 1.0, -0.7)),
                        st.floats(-3.0, 3.0))


def nudged(ar):
    """ar with every coefficient moved by about 1e-4: a near miss for a key."""
    return tuple(c + 1e-4 * (1.0 + abs(c)) for c in ar)


@settings(max_examples=50)
@given(st.lists(st.lists(coefficient, max_size=3).map(tuple), max_size=8))
def test_min_root_modulus_memoized_equals_uncached(calls):
    cold_and_warm(_min_root_modulus, [(a,) for ar in calls for a in (ar, nudged(ar))])


# ---------------------------------------------------------------------------
# AR generation against the recursion, one step at a time
# ---------------------------------------------------------------------------


def recursion_rows(spec, eps, T, burn):
    """y_t = v_t + sum_i a_i(t) y_{t-i}, step by step, with y = 0 before the
    first column. Column c is time t = c - burn + 1; the burn-in runs with
    the first segment's coefficients at the initial scale."""
    t = np.arange(eps.shape[1]) - burn + 1
    v = eps.copy()
    if isinstance(spec, ArmaSpec):
        for j, c in enumerate(spec.ma, start=1):
            v[:, j:] += c * eps[:, :-j]
        ars = [spec.ar] * t.size
    elif isinstance(spec, TvInnovationArSpec):
        v *= spec.sigma(np.clip(t / T, 0.0, 1.0))
        ars = [spec.ar] * t.size
    else:  # segment j holds floor(f_{j-1} T) < t <= floor(f_j T)
        ends = [math.floor(frac * T) for frac, _ in spec.segments]
        ars = [spec.segments[sum(e < tc for e in ends[:-1])][1] for tc in t]
    y = np.zeros_like(v)
    for c, ar in enumerate(ars):
        y[:, c] = v[:, c] + sum(a * y[:, c - i] for i, a in enumerate(ar, start=1) if c >= i)
    return y[:, burn:]


@st.composite
def ar_coefficients(draw):
    """Up to 20 coefficients with sum |a_i| < 1, so the recursion is stable."""
    raw = np.array(draw(st.lists(st.floats(-1.0, 1.0), max_size=20)), dtype=float)
    return tuple((raw * 0.95 / max(1.0, np.abs(raw).sum())).tolist())


@st.composite
def recursion_cases(draw):
    """(spec, eps, T, burn, piece): order 0-20, MA terms, a time-varying scale,
    or changepoints whose segments may be empty or shorter than their order;
    rows of up to 180 columns, walked in pieces of 1-40 columns."""
    T, burn = draw(st.integers(1, 150)), draw(st.integers(0, 30))
    kind = draw(st.sampled_from(("arma", "tv", "changepoint")))
    if kind == "arma":
        ma = tuple(draw(st.lists(st.floats(-2.0, 2.0), max_size=3)))
        spec = ArmaSpec(ar=draw(ar_coefficients()), ma=ma)
    elif kind == "tv":
        amp = draw(st.floats(0.0, 0.9))
        spec = TvInnovationArSpec(ar=draw(ar_coefficients()),
                                  sigma=lambda u: 1.0 + amp * np.sin(7.0 * u))
    else:  # fractions k / (4T): several may share a floor(f T)
        ks = sorted(set(draw(st.lists(st.integers(1, 4 * T - 1), max_size=4)))) if T > 1 else []
        spec = ChangepointArSpec(segments=tuple(
            (frac, draw(ar_coefficients())) for frac in [k / (4 * T) for k in ks] + [1.0]))
    rows = draw(st.integers(1, 3))
    eps = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((rows, T + burn))
    return spec, eps, T, burn, draw(st.integers(1, 40))


@settings(max_examples=300)
@given(recursion_cases())
def test_ar_generation_follows_the_recursion(case):
    spec, eps, T, burn, piece = case
    with mock.patch.object(simulate, "_PIECE", piece):
        got = _filter_rows(spec, eps.copy(), T, burn)
        rows = [_filter_rows(spec, eps[i:i + 1].copy(), T, burn)[0] for i in range(len(eps))]
    want = recursion_rows(spec, eps, T, burn)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert all(np.array_equal(row, got[i]) for i, row in enumerate(rows))


# ---------------------------------------------------------------------------
# invariances of the test
# ---------------------------------------------------------------------------


@st.composite
def invariance_cases(draw):
    """(x, lags, ridge_factor): T from 32 to 20000, 5-smooth (the transform
    route) or not (the loop), a lag T - d just above T/2, so q = d of either
    parity, and up to 5 more lags."""
    T = draw(st.one_of(st.integers(32, 20000).map(_fast_length).filter(lambda T: T <= 20000),
                       st.integers(32, 20000)))
    lag = st.integers(1, T - 1).filter(lambda r: 2 * r != T)
    lags = [T - draw(st.integers(1, 4))] + draw(st.lists(lag, min_size=1, max_size=5))
    return (pipeline_input(1, T, draw(st.integers(0, 2 ** 32 - 1)))[0], tuple(lags),
            draw(st.sampled_from((1e-3, 0.5))))


def covariances(x, lags, ridge_factor):
    result = stationarity_test(x, lags=lags, ridge_factor=ridge_factor)
    return result.statistic, np.array(result.covariances)


def assert_turned(got, want, phase, tol=1e-11):
    """got's statistic equals want's, and its c(r) equal phase * want's, to tol
    (relative to the statistic and the largest |c|)."""
    (stat, c), (stat0, c0) = got, want
    assert stat == pytest.approx(stat0, rel=tol)
    assert np.max(np.abs(c - phase * c0)) <= tol * np.max(np.abs(c0))


@settings(max_examples=40)
@given(invariance_cases(), st.integers(1, 20000))
def test_rotation_turns_each_covariance_by_its_lag_phase(case, s):
    # Z_k gains exp(i s w_k), so c(r) gains exp(-i s w_r)
    x, lags, ridge_factor = case
    r, T = np.array(lags), x.size
    assert_turned(covariances(np.roll(x, s), lags, ridge_factor),
                  covariances(x, lags, ridge_factor), np.exp(-2j * np.pi * (s % T) * r / T))


@settings(max_examples=40)
@given(invariance_cases())
def test_time_reversal_conjugates_each_covariance(case):
    # Z_k becomes exp(i w_k) conj(Z_k), so c(r) becomes exp(-i w_r) conj(c(r))
    x, lags, ridge_factor = case
    stat, c = covariances(x, lags, ridge_factor)
    assert_turned(covariances(x[::-1], lags, ridge_factor), (stat, np.conj(c)),
                  np.exp(-2j * np.pi * np.array(lags) / x.size))


@settings(max_examples=40)
@given(invariance_cases(), st.integers(-900, 900))
def test_power_of_two_scaling_changes_no_bit(case, k):
    x, lags, ridge_factor = case
    got = stationarity_test(np.ldexp(x, k), lags=lags, ridge_factor=ridge_factor)
    want = stationarity_test(x, lags=lags, ridge_factor=ridge_factor)
    assert (got.statistic, got.covariances) == (want.statistic, want.covariances)


@settings(max_examples=40)
@given(invariance_cases(), st.floats(1e-3, 1e3), st.booleans(), st.floats(-1e3, 1e3))
def test_an_affine_map_changes_the_test_only_by_rounding(case, a, negative, shift):
    # demeaning removes b, and a relative ridge scales with a**2 like the
    # spectrum; b is at most 1000 |a|, so a x + b keeps 40 of x's bits
    x, lags, ridge_factor = case
    a, b = (-a if negative else a), shift * a
    assert_turned(covariances(a * x + b, lags, ridge_factor),
                  covariances(x, lags, ridge_factor), 1.0, tol=1e-9)


@settings(max_examples=40)
@given(invariance_cases(), st.data())
def test_permuting_the_lags_permutes_each_lags_terms(case, data):
    # each lag's c(r) and term is computed on its own; only the statistic's
    # sum runs in the new order
    x, lags, ridge_factor = case
    order = data.draw(st.permutations(range(len(lags))))
    want = stationarity_test(x, lags=lags, ridge_factor=ridge_factor)
    got = stationarity_test(x, lags=[lags[i] for i in order], ridge_factor=ridge_factor)
    assert got.covariances == tuple(want.covariances[i] for i in order)
    assert got.contributions == tuple(want.contributions[i] for i in order)
    assert got.statistic == pytest.approx(want.statistic, rel=1e-14)


# ---------------------------------------------------------------------------
# the CLI on awkward series and flags
# ---------------------------------------------------------------------------


def fuzzed_series(rng):
    """A series as the CLI may meet it: normal noise at a scale 2**k (up
    to too large for the DFT) or 10**k far from 1, a sinusoid whose
    smoothed spectrum is zero without a ridge, or, less often, a constant,
    one with a NaN or one too short."""
    kind = rng.choice(["binary", "decimal", "sinusoid", "constant", "nan", "short"],
                      p=[0.2, 0.2, 0.4, 0.1, 0.05, 0.05])
    T = int(rng.integers(20, 32) if kind == "short" else rng.integers(32, 601))
    t = np.arange(1, T + 1)
    noise = rng.standard_normal(T)
    if kind == "sinusoid":
        return np.cos(2 * np.pi * rng.integers(1, T // 2 + 1) * t / T)
    if kind == "binary":
        return np.ldexp(noise, rng.integers(-1000, 1021))
    if kind == "constant":
        return np.full(T, rng.choice([0.0, 1.0, -2.5e300, 3e-300]))
    if kind == "nan":
        noise[rng.integers(T)] = np.nan
        return noise
    return noise * 10.0 ** rng.integers(-300, 301)


def fuzzed_flag(rng, name, valid, invalid, present=0.5):
    """[name, value] with probability ``present``; the value is valid nine
    times in ten."""
    if rng.random() >= present:
        return []
    return [name, str(rng.choice(valid if rng.random() < 0.9 else invalid))]


def fuzzed_argv(rng, path):
    """argv for ``test`` or ``segment`` on a fuzzed series, which is written
    to path one value a line, or in the second field of ``index,value`` rows."""
    x, csv = fuzzed_series(rng), rng.random() < 0.5
    rows = (f"{i},{v!r}" if csv else repr(v) for i, v in enumerate(x.tolist()))
    path.write_text("\n".join(rows) + "\n")
    command = str(rng.choice(["test", "segment"]))
    argv = [command, str(path)] + (["--depth", str(rng.integers(0, 3))]
                                   if command == "segment" else [])
    argv += fuzzed_flag(rng, "--m", ["4", "1", "10"], ["0", "400", str(10 ** 9)])
    argv += fuzzed_flag(rng, "--lags", ["1..4", "2,5,7", "1,15"], ["0", "1..10000", "2,5,300"])
    argv += fuzzed_flag(rng, "--bandwidth", ["auto", "0.1", "0.2"], ["1e-4", "0.6", "nan"])
    argv += fuzzed_flag(rng, "--ridge-factor", ["0", "0", "1e-3", "0.5"], ["-1", "inf", "nan"])
    column = fuzzed_flag(rng, "--column", ["1"] if csv else ["0"], ["0", "2"] if csv else ["1"])
    return argv + (column or (["--column", "1"] if csv else [])) + ["--format", "json"]


def fuzzed_study_argv(rng, outdir):
    """argv for ``mc`` or ``scan`` of a preset with N 1-3 and T 32-128,
    writing its files to outdir."""
    command = str(rng.choice(["mc", "scan"]))
    argv = [command, str(rng.choice(PRESET_NAMES)), "--T", str(rng.integers(32, 129)),
            "--N", str(rng.integers(1, 4)), "--outdir", str(outdir)]
    if command == "mc":
        argv += fuzzed_flag(rng, "--m", ["4", "1", "10"], ["0", "400", str(10 ** 9)])
    argv += fuzzed_flag(rng, "--lags", ["1..4", "2,5,7", "1,15"], ["0", "1..10000", "2,5,300"],
                        present=1.0 if command == "scan" else 0.5)
    argv += fuzzed_flag(rng, "--bandwidth", ["auto", "0.1", "0.2"], ["1e-4", "0.6", "nan"])
    argv += fuzzed_flag(rng, "--ridge-factor", ["0", "1e-3", "0.5"], ["-1", "inf", "nan"])
    argv += fuzzed_flag(rng, "--seed", ["0", "7", str(2 ** 64 - 1)], ["-1", str(2 ** 64)])
    return argv + fuzzed_flag(rng, "--burn-in", ["0", "50", "500"], ["-1", "-500"])


def fuzzed_model_argv(rng, outdir):
    """argv for ``simulate`` (T 32-200) or ``power`` of a preset, a JSON spec
    written to outdir (stable or not), an unknown preset or a missing spec,
    writing its files to outdir. Valid grids and lags stay small."""
    (outdir / "ar.json").write_text('{"family": "ar_ma", "ar": [0.5]}')
    (outdir / "explosive.json").write_text('{"family": "ar_ma", "ar": [1.2]}')
    model = str(rng.choice([*PRESET_NAMES, str(outdir / "ar.json")]) if rng.random() < 0.9
                else rng.choice(["model9", str(outdir / "explosive.json"),
                                 str(outdir / "missing.json")]))
    if rng.random() < 0.5:
        return (["simulate", model, "--output", str(outdir / "x.csv")]
                + fuzzed_flag(rng, "--T", ["32", "64", "200"], ["0", "31", "-5"], present=1.0)
                + fuzzed_flag(rng, "--seed", ["0", "7", str(2 ** 64 - 1)], ["-1", str(2 ** 64)])
                + fuzzed_flag(rng, "--stream", ["0", "3"], ["-2"])
                + fuzzed_flag(rng, "--burn-in", ["0", "50", "500"], ["-1"]))
    return (["power", model, "--outdir", str(outdir)]
            + fuzzed_flag(rng, "--lags", ["1..4", "2,5,7", "1,15"], ["0", "a", "1..0"],
                          present=1.0)
            + fuzzed_flag(rng, "--T", ["64", "256", "512"], ["0", "31", "-5"])
            + fuzzed_flag(rng, "--u-grid", ["128", "257"], ["5"])
            + fuzzed_flag(rng, "--omega-grid", ["256", "513"], ["5"])
            + (["--finite-lag-shift"] if rng.random() < 0.5 else []))


def exit_code(argv):
    """``main(argv)``, which must give no warning but a BandwidthWarning, the
    documented response to a valid bandwidth outside the admissible window.
    The suite turns a RuntimeWarning into an error, so a stray one fails too."""
    with warnings.catch_warnings(record=True) as caught:
        code = main(argv)
    assert all(w.category is BandwidthWarning for w in caught), [str(w.message) for w in caught]
    return code


@settings(max_examples=120)
@given(st.integers(0, 2 ** 32 - 1))
def test_the_cli_exits_0_2_or_3_whatever_the_series_and_flags(tmp_path_factory, seed):
    argv = fuzzed_argv(np.random.default_rng(seed), tmp_path_factory.mktemp("fuzz") / "x.csv")
    assert exit_code(argv) in (0, 2, 3)


@settings(max_examples=120)
@given(st.integers(0, 2 ** 32 - 1))
def test_the_study_commands_exit_0_2_or_3_whatever_the_flags(tmp_path_factory, seed):
    argv = fuzzed_study_argv(np.random.default_rng(seed), tmp_path_factory.mktemp("study"))
    assert exit_code(argv) in (0, 2, 3)


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32 - 1))
def test_simulate_and_power_exit_0_2_or_3_whatever_the_flags(tmp_path_factory, seed):
    argv = fuzzed_model_argv(np.random.default_rng(seed), tmp_path_factory.mktemp("model"))
    assert exit_code(argv) in (0, 2, 3)
