"""Test helpers for the block pipeline (DFT -> smoothing -> covariances).

``pipeline_input`` makes test series. ``lag_covariances`` and
``block_covariances`` run the library's two covariance steps (the
lag-independent source, then the read of the lags) as one call.
``smooth_half`` adapts the library's in-place half smoother to a plain
periodogram input, and
``half_of`` and ``full_circle`` move a symmetric spectrum between the
whole circle and its half k = 0..T//2. The
``oracle_*`` functions are the pipeline as it ran before it worked in
place, every stage returning a new array; the library's pipeline must
equal them bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np

from dftstat.numerics import _rfft_at, _unfold
from dftstat.spectral import _fast_length, _smooth_half
from dftstat.stattest import _block_source, _lag_source, _plan, _read_lags


def pipeline_input(rows, T, seed):
    """rows variance-modulated MA(1) series with mean 3: the MA(1) spectrum
    falls to 1/361 of its peak at w = pi, so a ridge of half the mean binds."""
    e = np.random.default_rng(seed).standard_normal((rows, T + 1))
    scale = 1 + 0.5 * np.cos(2 * np.pi * np.arange(1, T + 1) / T)
    return 3.0 + (e[:, 1:] + 0.9 * e[:, :-1]) * scale


def lag_covariances(Zh, T, lags, work=None, transform=None):
    """c(r) at the lags for every row of the half spectrum Zh, which the
    transform route overwrites (``stattest._lag_source``). The route is the
    one the library's plan for T takes, unless ``transform`` forces it: the
    two steps read it, with T and the lags, from the plan they are given."""
    if transform is None:
        transform = _plan(T, None, 1, None, None, 1e-3, True).transform
    plan = SimpleNamespace(T=T, lags=tuple(lags), transform=transform)
    return _read_lags(_lag_source(Zh, plan, work), plan)


def block_covariances(X, plan, exponents):
    """The standardized covariances at the plan's lags of each row of X,
    non-finite where the smoothed spectrum is zero, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _read_lags(_block_source(X, plan, exponents), plan)


def smooth_half(P, T, smoother, ridge_factor):
    """The library's ``_smooth_half`` of the half periodogram P (I_k at
    k = 0..T//2, last axis) with ``smoother``, what ``_smoother`` returns for
    T, returned as a new array; P is not written."""
    _, weights, n, spectrum = smoother
    H = weights.size // 2
    buf = np.empty(P.shape[:-1] + (n,))
    buf[..., H:H + T // 2 + 1] = P
    return _smooth_half(buf, T, H, spectrum, ridge_factor).copy()


def half_of(v):
    """Entries k = 0..T//2 of an array in k = 1..T order (last axis)."""
    return np.concatenate([v[..., -1:], v[..., :v.shape[-1] // 2]], axis=-1)


def full_circle(fh, T):
    """A symmetric spectrum (f_{T-k} = f_k) in k = 1..T order (last axis),
    mirrored from its entries fh at k = 0..T//2."""
    k = np.arange(1, T + 1)
    return fh[..., np.minimum(k, T - k)]


def oracle_half_dft(x):
    T = x.shape[-1]
    return np.fft.rfft(np.roll(x, 1, axis=-1), axis=-1) / math.sqrt(2.0 * math.pi * T)


def oracle_convolve(padded, weights):
    m = padded.shape[-1]
    H = weights.size // 2
    n = _fast_length(m)
    spectrum = np.fft.rfft(padded, n, axis=-1) * np.fft.rfft(weights, n)
    return np.fft.irfft(spectrum, n, axis=-1)[..., 2 * H:m]


def oracle_smooth_half(P, T, weights, ridge_factor):
    h = T // 2
    H = weights.size // 2
    padded = np.concatenate([P[..., H:0:-1], P, P[..., T - h - 1:T - h - H - 1:-1]], axis=-1)
    total = 2.0 * P.sum(axis=-1, keepdims=True) - P[..., :1]
    if T % 2 == 0:
        total -= P[..., h:]
    return np.maximum(oracle_convolve(padded, weights), ridge_factor * total / T)


def oracle_lag_covariances(Zh, T, lags):
    """The kernel's routes, out of place: the loop route's half-circle sum
    reads Z from fancy-indexed copies of the unfolded circle, in the
    kernel's pieces of 8192 points."""
    if _fast_length(T) == T:
        y = np.fft.irfft(Zh, T, axis=-1, norm="forward")
        return _rfft_at(np.fft.rfft(y * y, axis=-1), lags, T) / T ** 2
    Z = _unfold(Zh, T)  # Z[..., k - 1] holds Z_k, k = 1..T
    out = []
    for r in lags:
        # T c(q) = 2 sum_{-q/2 < k < (T-q)/2} Z_k conj(Z_{k+q}) + the fixed points
        q = min(r, T - r)
        k = np.arange(-((q - 1) // 2), (T - q + 1) // 2)
        left, right = Z[..., (k - 1) % T], np.conj(Z[..., (k + q - 1) % T])
        total = 2.0 * sum(np.einsum("...k,...k->...", left[..., s:s + 8192],
                                    right[..., s:s + 8192])
                          for s in range(0, k.size, 8192))
        if q % 2 == 0:
            total = total + Z[..., -q // 2 - 1] * np.conj(Z[..., q // 2 - 1])
        if (T - q) % 2 == 0:
            total = total + Z[..., (T - q) // 2 - 1] * np.conj(Z[..., (T + q) // 2 - 1])
        out.append(total / T if r == q else np.conj(total / T))
    return np.stack(out, axis=-1)


def oracle_block_covariances(X, weights, ridge_factor, lags, demean):
    if demean:
        X = X - X.mean(axis=-1, keepdims=True)
    T = X.shape[-1]
    half = oracle_half_dft(X)
    f = oracle_smooth_half(np.abs(half) ** 2, T, weights, ridge_factor)
    return oracle_lag_covariances(half / np.sqrt(f), T, lags)
