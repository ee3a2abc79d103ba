import math
import tracemalloc
import warnings

import numpy as np
import pytest

import dftstat.experiments as experiments
from dftstat import (
    ComputationError,
    InputError,
    McConfig,
    RngStream,
    chisq_quantile,
    chisq_sf,
    lag_scan,
    local_spectrum,
    model_preset,
    power_profile,
    rejection_rate,
    stationarity_test,
    generate,
    GeneratorConfig,
)
from dftstat.experiments import (
    _empirical_density,
    _eval_local,
    _time_average,
    _u_fourier,
)

BLOCKED_CHANGEPOINT = (
    "standardized DFT covariances are nearly invariant to AR-coefficient "
    "switches with matched innovation variance (the log-spectral integral "
    "is the same on both segments), so the targeted rejection rate is not "
    "attainable with this statistic"
)


# ---------------------------------------------------------------------------
# rejection_rate
# ---------------------------------------------------------------------------


def test_single_replication_is_the_single_test_decision():
    spec = model_preset("model1", 256)
    cfg = McConfig(model=spec, T=256, lags=(1, 2), replications=1,
                   master_seed=50, level=0.05)
    rep = rejection_rate(cfg)
    series = generate(spec, GeneratorConfig(T=256, burn_in=500, rng=RngStream(50, 0)))
    res = stationarity_test(series, lags=(1, 2))
    assert rep.rejection_rate in (0.0, 1.0)
    assert rep.rejection_rate == float(res.reject_at[0.05])
    assert rep.statistics[0] == res.statistic


def test_monte_carlo_determinism(monkeypatch):
    cfg = McConfig(model=model_preset("model1", 256), T=256, lags=(1,),
                   replications=50, master_seed=51)
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    a = rejection_rate(cfg)
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})  # b draws its replications again
    b = rejection_rate(cfg)
    assert a.rejection_rate == b.rejection_rate
    assert np.array_equal(a.statistics, b.statistics)
    assert np.array_equal(a.histogram[0], b.histogram[0])
    assert np.array_equal(a.histogram[1], b.histogram[1])
    c = rejection_rate(cfg)  # reads b's kept replications
    assert c.rejection_rate == a.rejection_rate
    assert np.array_equal(c.statistics, a.statistics)


def test_rejection_rate_recomputes_from_statistics():
    cfg = McConfig(model=model_preset("model6", 256), T=256, lags=(1, 2, 3),
                   replications=100, master_seed=52)
    rep = rejection_rate(cfg)
    recomputed = np.count_nonzero(rep.statistics > rep.threshold) / 100
    assert rep.rejection_rate == recomputed


def test_null_rejection_band_small_run():
    cfg = McConfig(model=model_preset("model1", 512), T=512, lags=(1, 2, 3, 4, 5),
                   replications=400, master_seed=53)
    rep = rejection_rate(cfg)
    assert 0.01 <= rep.rejection_rate <= 0.10


@pytest.mark.xfail(strict=False, reason=BLOCKED_CHANGEPOINT)
def test_changepoint_ar_rejection_rate_target():
    cfg = McConfig(model=model_preset("model3", 256), T=256, lags=(1,),
                   replications=200, master_seed=54)
    rep = rejection_rate(cfg)
    assert rep.rejection_rate >= 0.95


def test_a_small_changepoint_barely_moves_the_statistic():
    # BLOCKED_CHANGEPOINT, measured: on the same streams, model5's lag-1
    # statistic tracks that of its stationary first regime, model1, at both
    # lengths and every seed, so its power stays at model1's level (over 40
    # seeds x T 256/512 at N = 400: rates at most 0.0175 apart, correlation
    # at least 0.928)
    for T in (256, 512):
        for seed in (55, 56, 57):
            switched, stationary = (rejection_rate(McConfig(
                model=model_preset(name, T), T=T, lags=(1,), replications=400,
                master_seed=seed)) for name in ("model5", "model1"))
            assert abs(switched.rejection_rate - stationary.rejection_rate) <= 0.03
            assert np.corrcoef(switched.statistics, stationary.statistics)[0, 1] > 0.85


def test_mc_config_validation():
    spec = model_preset("model1", 256)
    with pytest.raises(InputError, match="^replications must be >= 1$"):
        McConfig(model=spec, T=256, replications=0)
    with pytest.raises(InputError, match=r"^level must be in \(0, 1\), got 1\.5$"):
        McConfig(model=spec, T=256, level=1.5)
    assert McConfig(model=spec, T=256, lags=range(1, 4)).lags == (1, 2, 3)
    with pytest.raises(InputError, match="lag 128 equals T/2"):
        McConfig(model=spec, T=256, lags=range(1, 257))


@pytest.mark.parametrize("bad", [{"replications": 0}, {"replications": -3},
                                 {"level": 0.0}, {"level": 1.5}, {"level": math.nan},
                                 {"master_seed": -1}, {"master_seed": 2 ** 64}])
def test_lag_scan_checks_replications_and_level_as_mc_config(bad):
    spec = model_preset("model1", 256)
    match = {"replications": "^replications must be >= 1$", "level": "^level must be in",
             "master_seed": "^master_seed must be a 64-bit unsigned integer$"}[next(iter(bad))]
    with pytest.raises(InputError, match=match) as scan_error:
        lag_scan(spec, 256, [1, 2], **bad)
    with pytest.raises(InputError, match=match) as config_error:
        McConfig(model=spec, T=256, **bad)
    assert str(scan_error.value) == str(config_error.value)


def test_fractional_lags_are_rejected_by_both_drivers():
    spec = model_preset("model1", 256)
    with pytest.raises(InputError, match="integer") as config_error:
        McConfig(model=spec, T=256, lags=(1.5, 2.9))
    with pytest.raises(InputError, match="integer") as scan_error:
        lag_scan(spec, 256, [1.5, 2.9], replications=2)
    assert str(scan_error.value) == str(config_error.value)
    assert McConfig(model=spec, T=256, lags=(1.0, 2)).lags == (1, 2)


# ---------------------------------------------------------------------------
# empirical density
# ---------------------------------------------------------------------------


def test_density_constant_vector():
    edges, density = _empirical_density(np.full(20, 4.0))
    occupied = density > 0
    assert occupied.sum() == 1
    widths = np.diff(edges)
    assert np.dot(density, widths) == pytest.approx(1.0)


def test_density_area_one():
    rng = np.random.default_rng(56)
    edges, density = _empirical_density(rng.exponential(size=500))
    assert np.dot(density, np.diff(edges)) == pytest.approx(1.0)


def test_density_matches_chi2_20():
    # quantile-transform uniforms into chi-square draws, then compare the
    # histogram against the density at bin midpoints
    n = 100_000
    u = RngStream(57, 0).generator().random(n)
    draws = np.array([chisq_quantile(p, 20) for p in u])
    edges, density = _empirical_density(draws)
    mids = 0.5 * (edges[:-1] + edges[1:])
    a = 10.0
    pdf = np.exp((a - 1) * np.log(mids) - mids / 2 - a * np.log(2.0)
                 - math.lgamma(a))
    assert np.max(np.abs(density - pdf)) <= 0.01


def test_density_validation():
    with pytest.raises(InputError, match="^the empirical density needs at least one statistic$"):
        _empirical_density([])


@pytest.mark.xfail(
    strict=False,
    reason="at the default bandwidth the finite-sample distribution of the "
           "10-lag statistic for a strongly peaked AR spectrum sits a bit "
           "further from chi-square than this bound; smaller bandwidths "
           "reduce the distance but fall outside the admissible window")
def test_null_statistics_ks_distance():
    cfg = McConfig(model=model_preset("model1", 512), T=512,
                   lags=tuple(range(1, 11)), replications=1000, master_seed=58)
    rep = rejection_rate(cfg)
    s = np.sort(rep.statistics)
    n = len(s)
    cdf = np.array([1 - chisq_sf(v, 20) for v in s])
    dist = max(np.max(np.arange(1, n + 1) / n - cdf),
               np.max(cdf - np.arange(0, n) / n))
    assert dist <= 0.06


# ---------------------------------------------------------------------------
# lag scan
# ---------------------------------------------------------------------------


def test_lag_scan_null_stays_near_level():
    rates = lag_scan(model_preset("model1", 512), 512, range(1, 21),
                     replications=300, master_seed=59)
    assert rates.max() <= 0.12
    assert abs(rates.mean() - 0.05) < 0.04


def test_lag_scan_rejects_excluded_lags():
    with pytest.raises(InputError, match=r"^lag 0 outside the valid range 1\.\.255$"):
        lag_scan(model_preset("model1", 256), 256, [0], replications=2)
    with pytest.raises(InputError, match="^lag 128 equals T/2 and is excluded for T=256$"):
        lag_scan(model_preset("model1", 256), 256, [128], replications=2)


def test_lag_scan_matches_separate_single_lag_runs(monkeypatch):
    spec = model_preset("model6", 256)
    rates = lag_scan(spec, 256, [1, 20], replications=60, master_seed=60)
    for pos, lag in enumerate((1, 20)):
        cfg = McConfig(model=spec, T=256, lags=(lag,), replications=60,
                       master_seed=60)
        monkeypatch.setattr(experiments._SPECTRA, "kept", {})  # drawn again, not read
        assert rejection_rate(cfg).rejection_rate == rates[pos]
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    rates = lag_scan(spec, 256, [1, 20], replications=60, master_seed=60)
    for pos, lag in enumerate((1, 20)):  # each reads the scan's kept replications
        cfg = McConfig(model=spec, T=256, lags=(lag,), replications=60,
                       master_seed=60)
        assert rejection_rate(cfg).rejection_rate == rates[pos]


# ---------------------------------------------------------------------------
# noncentrality and integrated spectra
# ---------------------------------------------------------------------------


def flat_modulated(u, w):
    return (1 + np.cos(2 * np.pi * np.asarray(u, float))) / (2 * np.pi) \
        * np.ones_like(np.asarray(w, float))


def test_noncentrality_vanishes_for_time_constant_spectra():
    for f in (local_spectrum(model_preset("model1", 512)),
              lambda u, w: np.full(np.broadcast_shapes(np.shape(u), np.shape(w)), 0.4),
              local_spectrum(model_preset("model2", 512))):
        for r in (1, 2, 7):
            assert abs(power_profile(f, (r,)).B_values[0]) <= 1e-8


def test_noncentrality_modulated_noise_analytic_value():
    assert power_profile(flat_modulated, (1,)).B_values[0] == pytest.approx(0.5, abs=1e-6)
    assert abs(power_profile(flat_modulated, (2,)).B_values[0]) <= 1e-8


def test_noncentrality_conjugation():
    f = local_spectrum(model_preset("model6", 512))
    b_plus = power_profile(f, (3,)).B_values[0]
    b_minus = power_profile(f, (-3,)).B_values[0]
    assert b_minus == pytest.approx(np.conj(b_plus), abs=1e-12)


def test_noncentrality_finite_shift_close_to_limit():
    a = power_profile(flat_modulated, (1,)).B_values[0]
    b = power_profile(flat_modulated, (1,), T=512).B_values[0]
    assert abs(a - b) < 0.01


def test_noncentrality_validation():
    with pytest.raises(InputError, match="^quadrature grid must be at least 128 x 256, got 64 x 513$"):
        power_profile(flat_modulated, (1,), u_points=64)
    with pytest.raises(InputError, match="^lag r must be nonzero$"):
        power_profile(flat_modulated, (0,))
    with pytest.raises(ComputationError, match="^integrated spectrum below 1e-10$"):
        power_profile(lambda u, w: np.zeros(np.broadcast_shapes(np.shape(u), np.shape(w))),
                      (1,))


def test_integrated_spectrum_time_constant():
    f = local_spectrum(model_preset("model1", 512))
    w = np.linspace(0, 2 * np.pi, 65)
    expected = (1 / (2 * np.pi)) / np.abs(1 - 0.8 * np.exp(1j * w)) ** 2
    u = np.linspace(0, 1, 257)
    fbar = _time_average(_eval_local(f, u, w))
    assert np.allclose(fbar, expected, rtol=1e-10)


def test_integrated_spectrum_modulated():
    w = np.linspace(0, 2 * np.pi, 33)
    u = np.linspace(0, 1, 257)
    out = _time_average(_eval_local(flat_modulated, u, w))
    assert np.allclose(out, 1 / (2 * np.pi), atol=1e-10)


def test_integrated_spectrum_separable_model4():
    spec = model_preset("model4", 512)
    f = local_spectrum(spec)
    w = np.linspace(0.3, 2.0, 9)
    u = np.linspace(0, 1, 4097)
    sval = spec.sigma(u)
    scale = np.trapezoid(sval ** 2, u) if hasattr(np, "trapezoid") else np.trapz(sval ** 2, u)
    base = (1 / (2 * np.pi)) / np.abs(1 - 0.8 * np.exp(1j * w)) ** 2
    fbar = _time_average(_eval_local(f, u, w))
    assert np.allclose(fbar, scale * base, rtol=1e-6)


def test_power_profile_layout():
    prof = power_profile(flat_modulated, [1, 2])
    assert prof.lags == (1, 2)
    assert prof.B_values.shape == (2,)
    assert prof.B_values[0] == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# the batched quadrature against the per-lag formula
# ---------------------------------------------------------------------------


def noncentrality_per_lag(f_local, r, T=None, u_points=257, omega_points=513):
    """B(r) by the per-lag formula: the full integrand grid
    f(u, w) exp(-2 pi i r u) / [fbar(w) fbar(w + 2 pi r / T)]**0.5, then a
    2-d trapezoid rule.

    The phase factor and both sums run in long double (80-bit on x86-64),
    so the oracle's own rounding stays far below the 1e-15 floor of the
    bound it checks; in double, the u-sum of the phase factors alone is off
    zero by about 1e-15."""
    from test_numerics import trapezoid_2d_values

    u = np.linspace(0.0, 1.0, u_points)
    w = np.linspace(0.0, 2 * np.pi, omega_points)
    u_long = np.linspace(0, 1, u_points, dtype=np.longdouble)
    two_pi_long = 8 * np.arctan(np.longdouble(1))
    trapz = getattr(np, "trapezoid", None) or np.trapz

    def grid(freqs):
        return np.broadcast_to(f_local(u[:, None], freqs[None, :]), (u.size, freqs.size))

    fbar = trapz(grid(w), u, axis=0)
    if T is None:
        denom = fbar
    else:
        denom = np.sqrt(fbar * trapz(grid((w + 2 * np.pi * r / T) % (2 * np.pi)), u, axis=0))
    phase = np.exp(-1j * two_pi_long * r * u_long)
    integrand = grid(w) * phase[:, None] / denom
    return complex(trapezoid_2d_values(integrand, u_long, w) / (2 * np.pi))


def assert_matches_per_lag(f, lags, T):
    got = power_profile(f, lags, T=T).B_values
    want = np.array([noncentrality_per_lag(f, r, T) for r in lags])
    # models 1 and 2 have B = 0, up to rounding of the O(1) integrand
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)) + 1e-15


@pytest.mark.parametrize("T", [None, 300, 512])
@pytest.mark.parametrize("name", ["model1", "model2", "model3", "model4", "model5",
                                  "model6"])
def test_power_profile_matches_per_lag_quadrature(name, T):
    f = local_spectrum(model_preset(name, 512))
    assert_matches_per_lag(f, (-7, -1, 1, 2, 3, 17, 64, 120), T)


def test_power_profile_matches_per_lag_quadrature_over_120_lags():
    f = local_spectrum(model_preset("model6", 512))
    assert_matches_per_lag(f, (-2, -1) + tuple(range(1, 121)), 512)


def test_noncentrality_is_the_one_lag_profile():
    f = local_spectrum(model_preset("model3", 512))
    for T in (None, 512):
        prof = power_profile(f, [1, 5, -2], T=T).B_values
        assert [power_profile(f, (r,), T=T).B_values[0] for r in (1, 5, -2)] == pytest.approx(
            list(prof), abs=1e-15)


def test_power_profile_memory_stays_at_one_grid():
    # one 257 x 513 grid is 1 MiB; a stacked shifted evaluation of 120 lags
    # would be about 127 MB. At T=512 every shift is whole grid steps; at
    # T=500 none is, so each lag evaluates a grid.
    f = local_spectrum(model_preset("model3", 512))
    for T in (512, 500):
        tracemalloc.start()
        try:
            power_profile(f, range(1, 121), T=T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, T


def u_only(u, w):
    return 1.5 + np.cos(2 * np.pi * u)


def w_only(u, w):
    return 2.0 + np.sin(w)


def returned_as(form, f):
    """f with its output returned as it is, as a read-only broadcast view of
    the evaluation grid, or as a writable or read-only full array."""
    def g(u, w):
        vals = np.asarray(f(u, w), dtype=float)
        shape = np.broadcast_shapes(np.shape(u), np.shape(w))
        if form == "view":
            return np.broadcast_to(vals, shape)
        if form == "as is":
            return vals
        full = np.array(np.broadcast_to(vals, shape))
        full.flags.writeable = form == "writable"
        return full
    return g


@pytest.mark.parametrize("T", [None, 300, 512])
@pytest.mark.parametrize("f", [u_only, w_only, local_spectrum(model_preset("model3", 512)),
                               local_spectrum(model_preset("model6", 512))],
                         ids=["u_only", "w_only", "model3", "model6"])
def test_power_profile_uses_f_output_as_returned(f, T):
    lags = (-7, -1, 1, 2, 3, 17, 64, 120)
    want = power_profile(returned_as("writable", f), lags, T=T).B_values
    for form in ("as is", "view", "read-only"):
        got = power_profile(returned_as(form, f), lags, T=T).B_values
        assert got.tobytes() == want.tobytes(), form


def test_power_profile_reduces_huge_lags_to_their_residue():
    # the u-transform reads r mod (u_points - 1) = 256; the shift reads r mod T
    f = local_spectrum(model_preset("model6", 512))
    for T, period in ((None, 256), (512, 512), (300, math.lcm(256, 300))):
        for lag in (10 ** 23 + 3, -(10 ** 23 + 3), 10 ** 400 + 3):  # the last is no float
            got = power_profile(f, [lag], T=T).B_values
            want = power_profile(f, [lag % period], T=T).B_values
            assert got.tobytes() == want.tobytes(), (T, lag)


def test_power_profile_needs_a_lag():
    for T in (None, 512):
        with pytest.raises(InputError, match="^at least one lag is required$"):
            power_profile(flat_modulated, [], T=T)


@pytest.mark.parametrize("T", [None, 300, 512])
def test_power_profile_allocates_nothing_the_size_of_the_grid(T):
    # one 257 x 513 grid is 1 MiB of floats and 2 MiB as a complex transform;
    # a u-only f returns a (257, 1) column, so the grid is never built
    power_profile(u_only, range(1, 13), T=T)
    tracemalloc.start()
    try:
        power_profile(u_only, range(1, 13), T=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2 ** 20, peak


@pytest.mark.parametrize("u_points", [129, 257, 4097])
def test_u_fourier_bits_do_not_depend_on_the_piece_width(u_points, monkeypatch):
    vals = np.random.default_rng(u_points).random((u_points, 45))
    lags = (-(10 ** 20), -7, -1, 1, 2, 3, 64, u_points, 10 ** 20 + 1)
    row = 16 * ((u_points - 1) // 2 + 1)  # bytes of one transformed column
    results = []
    for piece in (1, 7 * row + 5, 10 ** 9):  # one column, 7 columns, the whole grid
        monkeypatch.setattr("dftstat.experiments._GRID_PIECE", piece)
        results.append(_u_fourier(vals, lags).tobytes())
    assert results[0] == results[1] == results[2]


def test_power_profile_transforms_an_omega_constant_f_once(monkeypatch):
    # model6's f is sigma(u)^2 / (2 pi), a column broadcast along omega
    columns, rfft = [], np.fft.rfft

    def counted_rfft(a, *args, **kwargs):
        columns.append(a.shape[1])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    f = local_spectrum(model_preset("model6", 512))
    for T in (None, 500, 512):
        columns.clear()
        power_profile(f, range(1, 13), T=T)
        assert columns == [1], T


def spoiled(values, on_grid):
    """1 everywhere but a few scattered cells, which hold ``values``: on the
    plain quadrature grid if ``on_grid``, else only on shifted evaluations."""
    plain = np.linspace(0.0, 2 * np.pi, 513)

    def f(u, w):
        out = np.ones(np.broadcast_shapes(np.shape(u), np.shape(w)))
        if np.array_equal(np.ravel(w), plain) == on_grid:
            out.flat[np.arange(len(values)) * 9973 + 11] = values
        return out
    return f


def spoiled_line(values, axis, on_grid):
    """f constant along one axis: a line along u (axis 0) or omega (axis 1),
    1 but for a few cells holding ``values``, returned as a read-only view
    broadcast to the grid, so the other axis has stride 0; spoiled as in
    ``spoiled``."""
    plain = np.linspace(0.0, 2 * np.pi, 513)

    def f(u, w):
        shape = np.broadcast_shapes(np.shape(u), np.shape(w))
        line = np.ones(shape[axis])
        if np.array_equal(np.ravel(w), plain) == on_grid:
            line[np.arange(len(values)) * 37 + 11] = values
        return np.broadcast_to(np.expand_dims(line, 1 - axis), shape)
    return f


SPOILS = [
    ((-1.0, np.nan, -2.0), "non-finite values"),
    ((np.nan, -1.0), "non-finite values"),
    ((-np.inf,), "non-finite values"),
    ((-1e-300,), "negative values"),
]
SPOIL_IDS = ["nan_between_negatives", "nan_then_negative", "minus_inf", "one_negative_cell"]


@pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "off_grid"])
@pytest.mark.parametrize("values, message", SPOILS, ids=SPOIL_IDS)
def test_power_profile_checks_every_cell_in_order(values, message, on_grid):
    # at T = 300, 512 * r / 300 is not whole for r = 1, 2: both shifts are
    # evaluated off the grid
    with pytest.raises(ComputationError, match=f"^local spectrum produced {message}$"):
        power_profile(spoiled(values, on_grid), [1, 2], T=None if on_grid else 300)


@pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "off_grid"])
@pytest.mark.parametrize("axis", [0, 1], ids=["u_column", "omega_row"])
@pytest.mark.parametrize("values, message", SPOILS, ids=SPOIL_IDS)
def test_power_profile_checks_every_distinct_cell_of_a_view(values, message, axis, on_grid):
    with pytest.raises(ComputationError, match=f"^local spectrum produced {message}$"):
        power_profile(spoiled_line(values, axis, on_grid), [1, 2], T=None if on_grid else 300)


def counted(f):
    def f_counted(u, w):
        f_counted.calls += 1
        return f(u, w)
    f_counted.calls = 0
    return f_counted


@pytest.mark.parametrize("T, omega_points, calls", [
    (512, 513, 1),        # 512 * r / 512: every shift is whole grid steps
    (500, 513, 121),      # 512 * r / 500 is whole only for r = 125k
    (512, 257, 1 + 60),   # 256 * r / 512 is whole for even r only
])
def test_power_profile_evaluates_only_the_off_grid_shifts(T, omega_points, calls):
    f = counted(local_spectrum(model_preset("model3", 512)))
    power_profile(f, range(1, 121), omega_points=omega_points, T=T)
    assert f.calls == calls


@pytest.mark.parametrize("T", [256, 512])
@pytest.mark.parametrize("name", ["model1", "model2", "model3", "model4", "model5",
                                  "model6"])
def test_power_profile_rolls_shifts_beyond_T(name, T):
    # shifts of more than one turn, both ways, against evaluated shifts
    f = local_spectrum(model_preset(name, 512))
    assert_matches_per_lag(f, (600, -513, 1024, -1), T)


def test_power_profile_rejects_lag_zero_anywhere():
    for lags in ([0], [0, 1, 2], [1, 2, 0], [3, 0, -3]):
        for T in (None, 512):
            with pytest.raises(InputError, match="^lag r must be nonzero$"):
                power_profile(flat_modulated, lags, T=T)


@pytest.mark.parametrize("T", [0, -512, 2.5, math.nan, math.inf])
def test_power_profile_rejects_a_T_that_is_not_a_positive_integer(T):
    with pytest.raises(InputError, match="T must be a positive integer"):
        power_profile(flat_modulated, [1, 2], T=T)
    with pytest.raises(InputError, match="T must be a positive integer"):
        power_profile(flat_modulated, (1,), T=T)


@pytest.mark.parametrize("T", [None, 512])
@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_power_profile_is_scale_invariant(scale, T):
    # B is homogeneous of degree 0 in f; the finite-shift denominator must
    # not overflow once f * f does
    f = local_spectrum(model_preset("model3", 512))
    want = power_profile(f, [1, 2, 5, -3], T=T).B_values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = power_profile(lambda u, w: scale * f(u, w), [1, 2, 5, -3], T=T).B_values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def shaped(value):
    return lambda u, w: np.full(np.broadcast_shapes(np.shape(u), np.shape(w)), value)


@pytest.mark.parametrize("T", [None, 512])
@pytest.mark.parametrize("f_local, message", [
    (shaped(-1.0), "^local spectrum produced negative values$"),
    (shaped(np.nan), "^local spectrum produced non-finite values$"),
    (shaped(np.inf), "^local spectrum produced non-finite values$"),
    (shaped(0.0), "^integrated spectrum below 1e-10$"),
    (shaped(1e-11), "^integrated spectrum below 1e-10$"),
], ids=["negative", "nan", "inf", "zero", "tiny"])
def test_power_profile_rejects_bad_spectra(f_local, message, T):
    with pytest.raises(ComputationError, match=message):
        power_profile(f_local, [1, 2], T=T)
    with pytest.raises(ComputationError, match=message):
        power_profile(f_local, (1,), T=T)


def off_grid(value, omega_points=513):
    """1 on the plain quadrature frequencies, ``value`` at every other one."""
    plain = np.linspace(0.0, 2 * np.pi, omega_points)
    return lambda u, w: np.broadcast_to(np.where(np.isin(w, plain), 1.0, value),
                                        np.broadcast_shapes(np.shape(u), np.shape(w)))


@pytest.mark.parametrize("value", [-1.0, np.nan, 0.0])
def test_power_profile_checks_the_shifted_evaluations(value):
    # at T = 300 and 500, 512 * r / T is not whole for r = 1, 2, so both
    # shifts are evaluated off the grid
    f = off_grid(value)
    assert power_profile(f, [1, 2]).B_values == pytest.approx([0, 0], abs=1e-15)
    message = ("^local spectrum produced non-finite values$" if np.isnan(value) else
               "^local spectrum produced negative values$" if value < 0 else
               "^integrated spectrum below 1e-10$")
    for T in (300, 500):
        with pytest.raises(ComputationError, match=message):
            power_profile(f, [1, 2], T=T)
