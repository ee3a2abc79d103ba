"""Monte Carlo studies and locally stationary power diagnostics.

Replication i always uses stream id i of the master seed, so results are
bit-identical regardless of execution order and can be reproduced from the
(config, seed) pair alone.

Both Monte Carlo functions run replications in blocks: the innovations of a chunk of
replications fill one (rows, n) array, and generation, the DFT, smoothing
and the covariance kernel each run once over the whole chunk, row by row.
A row's result does not depend on the chunk it sits in, so a replication's
statistic equals ``stationarity_test`` on ``generate`` of its stream, bit
for bit, and results do not depend on the chunk size. A chunk holds at most
``_CHUNK_ELEMENTS`` innovations (at least one replication), so memory stays
bounded as the replication count grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InvalidInputError,
    NumericalError,
    StationarityTestError,
)
from .numerics import _gauss_rows, chisq_quantile
from .spectral import KernelSpec
from .stattest import (
    CorrectionSpec,
    _TestPlan,
    _block_covariances,
    _checked_level,
    _first_bad_row,
    _plan,
    _statistics,
    validate_lags,
)
from .simulate import GeneratorConfig, ModelSpec, _filter_rows, innovation_count

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: model, sample size, lags and replication plan."""

    model: ModelSpec
    T: int
    lags: tuple[int, ...] = (1, 2, 3, 4)
    level: float = 0.05
    replications: int = 1000
    master_seed: int = 0
    kernel: Optional[KernelSpec] = None
    correction: Optional[CorrectionSpec] = None
    ridge_factor: float = 1e-3
    burn_in: int = 500

    def __post_init__(self):
        _check_study(self.replications, self.level)
        object.__setattr__(self, "lags", tuple(int(r) for r in self.lags))

    def with_m(self, m: int) -> "McConfig":
        """Same study with consecutive lags 1..m."""
        return replace(self, lags=tuple(range(1, m + 1)))


@dataclass(frozen=True)
class McReport:
    """Rejection rate, raw statistics and their normalized histogram."""

    rejection_rate: float
    statistics: np.ndarray = field(repr=False)
    histogram: tuple[np.ndarray, np.ndarray] = field(repr=False)  # (edges, density)
    threshold: float
    config: McConfig


_CHUNK_ELEMENTS = 2 ** 16  # innovations per chunk: 0.5 MiB per float array


def _check_study(replications: int, level: float):
    """The replication count and level every Monte Carlo study must have."""
    if replications < 1:
        raise InvalidInputError("replications must be >= 1")
    _checked_level(level)


def _study_plan(model: ModelSpec, T: int, burn_in: int, lags, kernel, correction,
                ridge_factor) -> _TestPlan:
    """Per-study checks and constants, done once rather than per replication.

    A failure here would have stopped the first replication, so it is
    reported as replication 0, as in a replication-by-replication run.
    """
    try:
        GeneratorConfig(T=T, burn_in=burn_in)
        model.validate()
        return _plan(T, lags, None, kernel, correction, ridge_factor, True)
    except StationarityTestError as exc:
        raise type(exc)(f"replication 0 (stream 0): {exc}") from exc


def _replication_chunks(model: ModelSpec, T: int, burn_in: int, master_seed: int,
                        replications: int, plan: _TestPlan):
    """Yield (start, C): covariances of replications start, start + 1, ...,
    one row each, chunk by chunk."""
    n = innovation_count(model, GeneratorConfig(T=T, burn_in=burn_in))
    rows = max(1, _CHUNK_ELEMENTS // n)
    for start in range(0, replications, rows):
        stop = min(start + rows, replications)
        X = _filter_rows(model, _gauss_rows(master_seed, start, stop, n), T, burn_in)
        bad = _first_bad_row(X)
        if bad is not None:
            i = start + bad[0]
            raise InvalidInputError(f"replication {i} (stream {i}): {bad[1]}")
        yield start, _block_covariances(X, plan)


def rejection_rate(config: McConfig) -> McReport:
    """Replicate the test and report the exact rejection fraction.

    Replication i draws from stream i; a failure in any replication aborts
    the study with the lowest failing replication index attached. The
    replications run in blocks (see the module notes): ``statistics[i]``
    equals ``stationarity_test`` on ``generate`` of stream i bit for bit,
    whatever the chunking, and memory does not grow with the replication
    count beyond the statistics array.
    """
    lags = validate_lags(config.lags, config.T)
    dof = 2 * len(lags)
    threshold = chisq_quantile(1.0 - config.level, dof)
    plan = _study_plan(config.model, config.T, config.burn_in, lags, config.kernel,
                       config.correction, config.ridge_factor)
    stats = np.empty(config.replications)
    for start, C in _replication_chunks(config.model, config.T, config.burn_in,
                                        config.master_seed, config.replications, plan):
        stats[start: start + len(C)] = _statistics(C, plan)
    rate = float(np.count_nonzero(stats > threshold)) / config.replications
    return McReport(
        rejection_rate=rate,
        statistics=stats,
        histogram=empirical_density(stats),
        threshold=threshold,
        config=config,
    )


def empirical_density(statistics, bins: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Normalized histogram (area one) of test statistics over [0, max]."""
    stats = np.asarray(statistics, dtype=float)
    if stats.size == 0:
        raise InvalidInputError("empirical_density needs at least one statistic")
    if bins < 2:
        raise InvalidInputError(f"bins must be >= 2, got {bins}")
    top = float(stats.max())
    if top <= 0.0:
        top = 1.0
    density, edges = np.histogram(stats, bins=bins, range=(0.0, top), density=True)
    return edges, density


def lag_scan(model: ModelSpec, T: int, lags, level: float = 0.05,
             replications: int = 1000, master_seed: int = 0,
             kernel: Optional[KernelSpec] = None,
             correction: Optional[CorrectionSpec] = None,
             ridge_factor: float = 1e-3, burn_in: int = 500) -> np.ndarray:
    """Rejection rate of the single-lag test at each requested lag.

    Each replication's DFT, spectral estimate and standardized transform are
    shared across all lags, so an extra lag costs one product-mean over T
    ordinates per replication. Replications run in blocks as in
    ``rejection_rate``: replication i uses stream i, the rates do not depend
    on the chunking, and memory stays bounded as the replication count grows.
    """
    _check_study(replications, level)
    lags = validate_lags(lags, T)
    threshold = chisq_quantile(1.0 - level, 2)
    plan = _study_plan(model, T, burn_in, lags, kernel, correction, ridge_factor)
    rejections = np.zeros(len(lags), dtype=int)
    for _, C in _replication_chunks(model, T, burn_in, master_seed, replications, plan):
        # single-lag statistics, each equal bit for bit to _statistics of that lag alone
        stats = T * (np.abs(C) ** 2 / plan.corrections)
        rejections += np.count_nonzero(stats > threshold, axis=0)
    return rejections / replications


# ---------------------------------------------------------------------------
# power diagnostics for locally stationary alternatives
# ---------------------------------------------------------------------------


def fourier_coefficient(fn: Callable, r: int, grid: int = 512) -> complex:
    """Riemann-sum Fourier coefficient of a function on [0, 1]:

        a_r = (1/n) * sum_{t=1..n} fn(t/n) * exp(-2*pi*i*r*t/n).
    """
    if grid < 64:
        raise InvalidInputError(f"grid must be >= 64, got {grid}")
    t = np.arange(1, grid + 1)
    u = t / grid
    vals = np.asarray(fn(u), dtype=float)
    return complex(np.mean(vals * np.exp(-2j * np.pi * r * t / grid)))


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights v with v @ y the composite trapezoid rule of y over the grid x."""
    half = 0.5 * np.diff(x)
    v = np.zeros(x.size)
    v[:-1] += half
    v[1:] += half
    return v


def integrated_spectrum(f_local: Callable, omega_grid, u_points: int = 257) -> np.ndarray:
    """Time average of the local spectral density at each frequency.

    f is evaluated once on the (u_points, len(omega_grid)) grid and averaged
    over u by the trapezoid weight row, as in ``noncentrality``.
    """
    w = np.asarray(omega_grid, dtype=float)
    u = np.linspace(0.0, 1.0, int(u_points))
    out = _trapezoid_weights(u) @ _eval_local(f_local, u, w)
    if np.any(out <= 0.0):
        raise DegenerateSpectrumError("integrated spectrum is not strictly positive")
    return out


def _eval_local(f_local, u, w) -> np.ndarray:
    vals = np.asarray(f_local(u[:, None], w[None, :]), dtype=float)
    if vals.shape != (u.size, w.size):
        vals = np.broadcast_to(vals, (u.size, w.size)).copy()
    if not np.all(np.isfinite(vals)):
        raise DegenerateSpectrumError("local spectrum produced non-finite values")
    if np.any(vals < 0.0):
        raise DegenerateSpectrumError("local spectrum produced negative values")
    return vals


def _time_average(wu: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """fbar = wu @ vals, checked to be at least 1e-10 at every frequency."""
    fbar = wu @ vals
    if np.any(fbar < 1e-10):
        raise DegenerateSpectrumError("integrated spectrum below 1e-10")
    return fbar


def _noncentralities(f_local: Callable, lags, u_points: int, omega_points: int,
                     T: Optional[int]) -> np.ndarray:
    """B(r) for every lag in ``lags`` by one trapezoid quadrature.

    f is evaluated once on the (u, w) grid. The u-integrals of all lags are
    one product: the rows exp(-2*pi*i*r*u) times the u weights, (lags x u),
    times the grid, (u x w); fbar is the weight row times the grid. With
    ``T`` given, fbar(w + 2*pi*r/T) costs one more grid evaluation per lag,
    reduced to its row before the next, so memory stays at one grid.
    """
    if u_points < 128 or omega_points < 256:
        raise InvalidInputError(
            f"quadrature grid must be at least 128 x 256, got {u_points} x {omega_points}"
        )
    r = np.asarray(lags, dtype=float)
    if np.any(r == 0):
        raise InvalidInputError("lag r must be nonzero")
    if T is not None and not (T >= 1 and float(T).is_integer()):
        raise InvalidInputError(f"T must be a positive integer, got {T!r}")
    u = np.linspace(0.0, 1.0, int(u_points))
    w = np.linspace(0.0, _TWO_PI, int(omega_points))
    wu = _trapezoid_weights(u)
    vals = _eval_local(f_local, u, w)
    fbar = _time_average(wu, vals)
    inner = (np.exp(np.multiply.outer(-2j * np.pi * r, u)) * wu) @ vals
    if T is None:
        integrand = inner / fbar
    else:
        shifted = np.array([
            _time_average(wu, _eval_local(f_local, u, (w + _TWO_PI * lag / T) % _TWO_PI))
            for lag in r]).reshape(r.size, w.size)
        integrand = inner / (np.sqrt(fbar) * np.sqrt(shifted))
    bad = ~np.isfinite(integrand)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericalError(
            f"non-finite integrand value at lag r={r[i]:g}, omega={w[j]!r}"
        )
    return integrand @ _trapezoid_weights(w) / _TWO_PI


def noncentrality(f_local: Callable, r: int, u_points: int = 257,
                  omega_points: int = 513, T: Optional[int] = None) -> complex:
    """Limit of the standardized DFT covariance under local stationarity.

    Computes

        B(r) = (2*pi)**-1 * integral over [0, 2pi] of
               [fbar(w) * fbar(w + w_r)]**-0.5
               * integral_0^1 f(u, w) exp(-2*pi*i*r*u) du  dw

    where fbar is the integrated spectrum. With ``T`` given, w_r = 2*pi*r/T;
    otherwise w_r = 0, the limit for fixed r as T grows. B vanishes exactly
    when f does not depend on u, and its magnitude at lag r drives the
    test's power there.

    This is the one-lag case of ``power_profile``: a trapezoid rule on a
    (u_points, omega_points) grid, with f evaluated once on it (twice with
    ``T`` given) and memory of one grid.
    """
    return complex(_noncentralities(f_local, (r,), u_points, omega_points, T)[0])


@dataclass(frozen=True)
class PowerProfile:
    """Noncentrality B(r) over a set of lags."""

    lags: tuple[int, ...]
    B_values: np.ndarray


def power_profile(f_local: Callable, lags, u_points: int = 257,
                  omega_points: int = 513, T: Optional[int] = None) -> PowerProfile:
    """Noncentrality B(r) per lag.

    All lags share one quadrature (see ``noncentrality`` for B): f is
    evaluated once on the (u_points, omega_points) grid and the u-integrals
    of all L lags are one (L x u_points) @ (u_points x omega_points) matrix
    product, so the cost is one grid evaluation plus O(L * u_points *
    omega_points) multiply-adds. With ``T`` given, each lag adds one grid
    evaluation of f at the shifted frequencies, taken one lag at a time, so
    memory stays at about one grid for any number of lags.
    """
    lags = tuple(int(r) for r in lags)
    B = _noncentralities(f_local, lags, u_points, omega_points, T)
    return PowerProfile(lags=lags, B_values=B)
