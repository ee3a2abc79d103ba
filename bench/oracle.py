"""Independent reference computations for the benchmark's correctness gate.

Nothing here calls into ``dftstat``: the series generators, the DFT, the
spectral smoother, the covariances and the noncentrality B(r) are written
again from their definitions, so a change in the library that alters a
statistic shows up as a mismatch against these values.

The DFT is the direct O(T^2) sum

    J(w_k) = (2*pi*T)**-0.5 * sum_{t=1..T} x_t * exp(i*t*w_k),  k = 1..T,

with the phase t*k reduced modulo T in integer arithmetic before the
exponential, which keeps it exact to rounding for any T. For the long
series (T ~ 2**18) a full direct sum would take ~10**11 operations, so
:func:`statistic` there takes the transform from ``numpy.fft.fft`` (a
different route from the library's scaled inverse FFT) and
:func:`check_dft_samples` pins that transform to direct sums at sampled
frequencies.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
BURN_IN = 500
RIDGE_FACTOR = 1e-3

# Relative tolerance of an oracle statistic against the library's. The two
# differ only by rounding (up to 3e-13 observed, at T = 256..2**18); a change
# to the estimator moves a statistic by far more.
ORACLE_RTOL = 1e-10
# Tolerance against values recorded from the library itself (same algorithm,
# same seed). Summation error in c(r) grows with T, so long series get more.
REFERENCE_RTOL = 1e-12
REFERENCE_RTOL_LONG = 1e-10
# chi-square values: the library documents 1e-10 absolute on the survival
# function and 1e-9 on quantiles.
PVALUE_ATOL = 1e-10
QUANTILE_RTOL = 1e-9

DIRECT_MAX_T = 1024  # above this the transform comes from the FFT, sampled against direct sums

# model6 scale: levels over twentieths of [0, 1]
SIGMA6_LEVELS = np.array(
    [3, 3, 3, 3, 3, 1, 3, 3, 2, 2, 2, 2, 3, 2, 1, 3, 1, 3, 1, 2], dtype=float
)


# ---------------------------------------------------------------------------
# series generators (the paper's models 1, 3 and 6)
# ---------------------------------------------------------------------------


def innovations(master_seed: int, stream: int, n: int) -> np.ndarray:
    """Philox stream keyed by (master_seed, stream), as the library's contract
    "replication i uses stream i" specifies."""
    key = (int(stream) << 64) | int(master_seed)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


def sigma6(u):
    u = np.asarray(u, dtype=float)
    return SIGMA6_LEVELS[np.clip(np.floor(u * 20.0).astype(int), 0, 19)]


def _ar_recursion(eps, coeffs_at):
    x = np.zeros(eps.size)
    for t in range(eps.size):
        acc = eps[t]
        for j, a in enumerate(coeffs_at(t), start=1):
            if t - j >= 0:
                acc += a * x[t - j]
        x[t] = acc
    return x


def model_series(model: str, T: int, master_seed: int, stream: int) -> np.ndarray:
    """One replication of model1, model3 or model6 with burn-in 500."""
    if model == "model6":
        eps = innovations(master_seed, stream, T)
        return sigma6(np.arange(1, T + 1) / T) * eps
    eps = innovations(master_seed, stream, T + BURN_IN)
    if model == "model1":
        x = _ar_recursion(eps, lambda t: (0.8,))
    elif model == "model3":
        switch = BURN_IN + int(math.floor(0.75 * T))
        x = _ar_recursion(eps, lambda t: (1.5, -0.75) if t < switch else (0.8,))
    else:
        raise ValueError(f"no oracle for {model}")
    return x[BURN_IN:]


# ---------------------------------------------------------------------------
# the statistic
# ---------------------------------------------------------------------------

_KERNELS: dict[int, np.ndarray] = {}


def direct_dft(x) -> np.ndarray:
    """Direct O(T^2) canonical DFT, k = 1..T order."""
    x = np.asarray(x, dtype=float)
    T = x.size
    E = _KERNELS.get(T)
    if E is None:
        t = np.arange(1, T + 1)
        E = np.exp(1j * TWO_PI * (np.outer(t, t) % T) / T)
        if T <= DIRECT_MAX_T:
            _KERNELS[T] = E
    return x @ E / math.sqrt(TWO_PI * T)


def fft_dft(x) -> np.ndarray:
    """Canonical DFT from the forward FFT: J_k = e^{i w_k} conj(fft(x))_k."""
    x = np.asarray(x, dtype=float)
    T = x.size
    k = np.arange(1, T + 1)
    F = np.conj(np.fft.fft(x))[k % T]
    return np.exp(1j * TWO_PI * k / T) * F / math.sqrt(TWO_PI * T)


def direct_dft_at(x, ks) -> np.ndarray:
    """Direct sums at selected frequency indices k (1..T)."""
    x = np.asarray(x, dtype=float)
    T = x.size
    t = np.arange(1, T + 1)
    return np.array([np.sum(x * np.exp(1j * TWO_PI * ((t * int(k)) % T) / T))
                     for k in ks]) / math.sqrt(TWO_PI * T)


def check_dft_samples(x, J, ks) -> float:
    """Largest error of J at frequencies ks against direct sums, relative to
    max |J|."""
    ks = np.asarray(ks, dtype=int)
    ref = direct_dft_at(x, ks)
    return float(np.max(np.abs(J[ks - 1] - ref)) / np.max(np.abs(J)))


def daniell_smooth(pgram) -> np.ndarray:
    """Circular moving average over the window |j| <= floor(b*T/2), with the
    default bandwidth b = T**(-1/3)."""
    T = pgram.size
    b = min(T ** (-1.0 / 3.0), 0.499)
    half = int(math.floor(b * T / 2.0))
    padded = np.concatenate([pgram[T - half:], pgram, pgram[:half]])
    csum = np.concatenate([[0.0], np.cumsum(padded)])
    width = 2 * half + 1
    return (csum[width:] - csum[:-width]) / width


def covariances(x, lags) -> np.ndarray:
    """Standardized DFT covariances c(r) of the demeaned series."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    T = x.size
    J = direct_dft(x) if T <= DIRECT_MAX_T else fft_dft(x)
    pgram = np.abs(J) ** 2
    f = np.maximum(daniell_smooth(pgram), RIDGE_FACTOR * pgram.mean())
    Z = J / np.sqrt(f)
    idx = np.arange(T)
    return np.array([np.mean(Z * np.conj(Z[(idx + r) % T])) for r in lags])


def statistic(x, lags) -> float:
    """Portmanteau statistic T * sum |c(r)|^2 (Gaussian correction)."""
    c = covariances(x, lags)
    return float(np.asarray(x).size * np.sum(np.abs(c) ** 2))


def single_lag_statistics(x, lags) -> np.ndarray:
    """T |c(r)|^2 per lag, the single-lag statistics of a lag scan."""
    c = covariances(x, lags)
    return np.asarray(x).size * np.abs(c) ** 2


def chisq_sf(x: float, dof: int) -> float:
    from scipy.special import chdtrc
    return float(chdtrc(dof, x))


def chisq_isf(p: float, dof: int) -> float:
    from scipy.special import chdtri
    return float(chdtri(dof, p))


# ---------------------------------------------------------------------------
# noncentrality of model6
# ---------------------------------------------------------------------------


def _trap(values, grid) -> complex:
    h = np.diff(grid)
    return complex(np.sum(0.5 * h * (values[1:] + values[:-1])))


def noncentrality_model6(lags, u_points: int = 257) -> np.ndarray:
    """B(r) for modulated noise: its local spectrum s(u)^2 / (2 pi) does not
    depend on frequency, so the double integral reduces to

        B(r) = int s(u)^2 exp(-2 pi i r u) du / int s(u)^2 du

    on the same trapezoid grid in u."""
    u = np.linspace(0.0, 1.0, int(u_points))
    s2 = sigma6(u) ** 2
    total = _trap(s2, u).real
    return np.array([_trap(s2 * np.exp(-2j * np.pi * r * u), u) / total for r in lags])


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def rel_close(a, b, rtol: float) -> bool:
    """Elementwise |a - b| <= rtol * max(|a|, |b|, tiny), all finite."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return bool(np.all(np.abs(a - b) <= rtol * scale))
