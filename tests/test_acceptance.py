"""Acceptance suite.

Each numbered check prints one PASS/FAIL line (run with ``pytest -s`` to see
them all). Checks 8a-8c need externally supplied data files and are skipped
when those files are absent; see the module docstring of ``_data_path``.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import dftstat as ds

SEED = 2026


def report(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def run_mc(model_name, T, m, N=1000, seed=SEED):
    spec = ds.model_preset(model_name, T)
    cfg = ds.McConfig(model=spec, T=T, lags=tuple(range(1, m + 1)),
                      replications=N, master_seed=seed)
    return ds.rejection_rate(cfg)


@pytest.fixture(scope="module")
def null_study():
    """Model 1 null runs at T = 512 shared by checks 1 and 2."""
    t0 = time.time()
    reports = {m: run_mc("model1", 512, m) for m in (1, 5, 10)}
    return reports, time.time() - t0


# 1 -------------------------------------------------------------------------


def test_criterion_1_null_calibration(null_study):
    reports, elapsed = null_study
    rates = {m: rep.rejection_rate for m, rep in reports.items()}
    ok = all(0.030 <= r <= 0.085 for r in rates.values()) and elapsed < 120.0
    report("1 null calibration",
           ok,
           f"rates m=1/5/10: {rates[1]:.3f}/{rates[5]:.3f}/{rates[10]:.3f}, "
           f"band [0.030, 0.085], elapsed {elapsed:.1f}s < 120s")


# 2 -------------------------------------------------------------------------


def ks_distance(stats, dof):
    s = np.sort(stats)
    n = len(s)
    cdf = np.array([1.0 - ds.chisq_sf(v, dof) for v in s])
    return max(np.max(np.arange(1, n + 1) / n - cdf),
               np.max(cdf - np.arange(0, n) / n))


def test_criterion_2_null_ks(null_study):
    reports, _ = null_study
    stats = reports[10].statistics
    dist = ks_distance(stats, 20)
    crit = 1.628 / math.sqrt(len(stats))
    report("2 null KS vs chi-square(20)", dist < crit,
           f"KS distance {dist:.4f}, 1% critical value {crit:.4f}")


# 3 -------------------------------------------------------------------------


def test_criterion_3_strong_alternative():
    rates = {}
    for T in (256, 512):
        for m in (1, 5, 10):
            rates[(T, m)] = run_mc("model3", T, m).rejection_rate
    ok = all(r >= 0.99 for r in rates.values())
    detail = " ".join(f"T{T}/m{m}={r:.2f}" for (T, m), r in rates.items())
    report("3 strong alternative (changepoint AR)", ok, detail + ", need >= 0.99")


# 4 -------------------------------------------------------------------------


def test_criterion_4a_small_changepoint():
    r256 = run_mc("model5", 256, 1).rejection_rate
    r512 = run_mc("model5", 512, 1).rejection_rate
    ok = (0.37 <= r256 <= 0.67) and (0.70 <= r512 <= 0.94)
    report("4a small changepoint AR", ok,
           f"T256={r256:.3f} in [0.37, 0.67]; T512={r512:.3f} in [0.70, 0.94]")


def test_criterion_4b_smooth_variance():
    r = run_mc("model4", 512, 1).rejection_rate
    report("4b smoothly varying innovation scale", r >= 0.90,
           f"T512/m1={r:.3f}, need >= 0.90")


def test_criterion_4c_piecewise_variance():
    r = run_mc("model6", 512, 10).rejection_rate
    report("4c piecewise variance", r >= 0.85, f"T512/m10={r:.3f}, need >= 0.85")


# 5 -------------------------------------------------------------------------


def test_criterion_5_lag_power_alignment():
    lags = tuple(range(1, 121))
    spec = ds.model_preset("model6", 512)
    rates = ds.lag_scan(spec, 512, lags, replications=600, master_seed=0)
    coeffs = np.array([abs(ds.fourier_coefficient(spec.sigma, r, 512)) for r in lags])
    rho = float(spearmanr(rates, coeffs).statistic)
    report("5 lag-power alignment", rho >= 0.5,
           f"spearman {rho:.3f} over 120 lags, 600 replications, need >= 0.5")


# 6 -------------------------------------------------------------------------


def test_criterion_6_noncentrality_oracle():
    flat_cases = [
        lambda u, w: np.full(np.broadcast_shapes(np.shape(u), np.shape(w)), 0.25),
        ds.local_spectrum(ds.model_preset("model1", 512)),
        ds.local_spectrum(ds.model_preset("model2", 512)),
    ]
    worst_flat = max(abs(ds.noncentrality(f, r))
                     for f in flat_cases for r in (1, 2, 5))

    def modulated(u, w):
        return (1 + np.cos(2 * np.pi * np.asarray(u, float))) / (2 * np.pi) \
            * np.ones_like(np.asarray(w, float))

    b1 = ds.noncentrality(modulated, 1)
    ok = worst_flat <= 1e-8 and abs(b1 - 0.5) <= 1e-6
    report("6 noncentrality oracle", ok,
           f"max |B| over u-constant spectra {worst_flat:.2e} <= 1e-8; "
           f"modulated B(1) = {b1.real:.8f} within 1e-6 of 1/2")


# 7 -------------------------------------------------------------------------


def test_criterion_7_numerical_kernel():
    from test_numerics import chisq_sf_simpson, dft_direct
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for T in (15, 16, 243, 453, 512):
        x = rng.standard_normal(T)
        fast = ds.dft_canonical(x)
        slow = dft_direct(x)
        worst_rel = max(worst_rel, float(np.max(np.abs(fast - slow))
                                         / np.max(np.abs(slow))))
    worst_pars = 0.0
    for T in (16, 64, 257):
        for _ in range(100):
            x = rng.standard_normal(T)
            lhs = np.sum(np.abs(ds.dft_canonical(x)) ** 2)
            rhs = np.sum(x ** 2) / (2 * np.pi)
            worst_pars = max(worst_pars, abs(lhs - rhs) / rhs)

    pairs = [(0.5, 1), (2.0, 1), (1.0, 2), (5.991464547107979, 2), (9.21, 2),
             (0.7, 3), (4.0, 3), (2.0, 4), (11.07, 5), (1.63, 6),
             (2.66, 8), (13.36, 8), (3.94, 10), (18.31, 10), (30.0, 12),
             (8.0, 16), (31.41, 20), (10.85, 20), (50.0, 25), (24.0, 30)]
    worst_sf = max(abs(ds.chisq_sf(x, dof) - chisq_sf_simpson(x, dof))
                   for x, dof in pairs)
    ok = worst_rel < 1e-9 and worst_pars < 1e-9 and worst_sf <= 1e-10
    report("7 numerical kernel", ok,
           f"fft-vs-direct rel {worst_rel:.1e} < 1e-9; parseval rel "
           f"{worst_pars:.1e} < 1e-9; chisq_sf abs {worst_sf:.1e} <= 1e-10 at 20 pairs")


# 8 -------------------------------------------------------------------------


def _data_path(env_var, default_name):
    """External data files: point DFTSTAT_SOI_FILE / DFTSTAT_FX_FILE at the
    southern-oscillation-index column file and the raw pound/dollar exchange
    rate column file, or drop them in tests/data/. Absent files skip 8a-8c."""
    candidate = os.environ.get(env_var)
    if candidate and Path(candidate).exists():
        return Path(candidate)
    fallback = Path(__file__).parent / "data" / default_name
    return fallback if fallback.exists() else None


def test_criterion_8a_soi_p_value():
    path = _data_path("DFTSTAT_SOI_FILE", "soi.txt")
    if path is None:
        pytest.skip("southern oscillation index file not supplied")
    series = np.loadtxt(path)
    res = ds.stationarity_test(series, m=4)
    report("8a SOI p-value", 0.85 <= res.p_value <= 0.99,
           f"T={res.T}, statistic {res.statistic:.3f}, p {res.p_value:.3f}")


def _fx_series(path):
    y = np.loadtxt(path)
    ly = np.log(y ** 2)
    return np.sqrt(np.abs(ly[2:] - ly[:-2]))


def test_criterion_8b_fx_full_sample():
    path = _data_path("DFTSTAT_FX_FILE", "fx.txt")
    if path is None:
        pytest.skip("exchange-rate file not supplied")
    res = ds.stationarity_test(_fx_series(path), m=4)
    report("8b FX full-sample rejection", res.p_value < 0.001,
           f"statistic {res.statistic:.2f}, p {res.p_value:.2e}")


def test_criterion_8c_fx_segmentation():
    path = _data_path("DFTSTAT_FX_FILE", "fx.txt")
    if path is None:
        pytest.skip("exchange-rate file not supplied")
    rep = ds.segmented_test(_fx_series(path), depth=3, m=4)
    full = rep.at_depth(0)[0]
    quarters = rep.at_depth(2)
    eighths = rep.at_depth(3)
    ok = (full.result.p_value < 0.05
          and quarters[2].result.p_value >= 0.05  # early-2006 to mid-2007
          and eighths[-1].result.p_value < 0.05)  # block starting Aug 2008
    report("8c FX segmentation pattern", ok,
           f"full p={full.result.p_value:.3f}, quiet quarter "
           f"p={quarters[2].result.p_value:.3f}, last eighth "
           f"p={eighths[-1].result.p_value:.3f}")


# 9 -------------------------------------------------------------------------


def test_criterion_9_invariance_suite():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(512)
    base = ds.stationarity_test(x, m=4).statistic
    worst_scale = max(abs(ds.stationarity_test(c * x, m=4).statistic - base)
                      for c in (0.1, 7.3))

    coherence_at_zero = ds.phase_coherence([1.0, -0.3, 0.2], 0.0)
    in_range = True
    for _ in range(100):
        psi = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, 3)])
        v = ds.phase_coherence(psi, rng.uniform(0, 2 * np.pi))
        in_range &= 0.0 <= v <= 1.0

    excluded_ok = True
    for bad in (0, 256):
        try:
            ds.stationarity_test(x, lags=[bad])
            excluded_ok = False
        except ds.InvalidLagError:
            pass

    ok = worst_scale <= 1e-8 and coherence_at_zero == 1.0 and in_range and excluded_ok
    report("9 invariance suite", ok,
           f"scale drift {worst_scale:.1e} <= 1e-8; coherence(0) = "
           f"{coherence_at_zero}; 100 random filters in [0,1]: {in_range}; "
           f"lags 0 and T/2 rejected: {excluded_ok}")
