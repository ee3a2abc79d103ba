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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ComputationError, InputError, StationarityTestError, _as_tuple, _checked_int
from .numerics import RngStream, _gauss_rows, _Memo, chisq_quantile
from .spectral import KernelSpec
from .stattest import (
    _DEFAULT_M,
    CorrectionSpec,
    _block_source,
    _block_terms,
    _checked_level,
    _plan,
    _scan_rows,
    validate_lags,
)
from .simulate import GeneratorConfig, ModelSpec, _filter_rows, innovation_count


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: model, sample size, lags and replication plan,
    checked on construction (``lags`` are stored as validated integers)."""

    model: ModelSpec
    T: int
    lags: tuple[int, ...] = tuple(range(1, _DEFAULT_M + 1))
    level: float = 0.05
    replications: int = 1000
    master_seed: int = 0
    kernel: Optional[KernelSpec] = None
    correction: Optional[CorrectionSpec] = None
    ridge_factor: float = 1e-3
    burn_in: int = 500

    def __post_init__(self):
        for name in ("T", "replications", "master_seed", "burn_in"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        RngStream(self.master_seed)  # raises on a seed outside [0, 2**64)
        if self.replications < 1:
            raise InputError("replications must be >= 1")
        _checked_level(self.level)
        object.__setattr__(self, "lags", validate_lags(self.lags, self.T))


@dataclass(frozen=True)
class McReport:
    """Rejection rate, raw statistics and their normalized histogram."""

    rejection_rate: float
    statistics: np.ndarray = field(repr=False)
    threshold: float
    config: McConfig

    @property
    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, density) of the statistics over [0, max] in 50 bins, area
        one; computed when read."""
        return _empirical_density(self.statistics)


_CHUNK_ELEMENTS = 2 ** 16  # innovations per chunk: 0.5 MiB per float array
_SPECTRA = _Memo(1, 2 ** 22)  # 4 MiB holds the paper's N = 1000 at T = 512 (4.11 MB)


def _replications(config: McConfig):
    """Yield the terms Q = |c(r)|^2 / denom_r (``_block_terms``) chunk by
    chunk, one row per replication, in order. A replication whose terms are
    not finite (a zero smoothed spectrum) stops the study.

    The per-study checks run once, before the first chunk. A failure there
    would have stopped the first replication, so it is reported as
    replication 0: the same exception class under a prefixed message.

    A study of the replications kept in ``_SPECTRA`` (the chunks' ``_block_source``
    arrays, keyed by all that fixes them) only reads its own lags from them.
    """
    model, T, burn_in = config.model, config.T, config.burn_in
    try:
        gen = GeneratorConfig(T=T, burn_in=burn_in)
        model.validate()
        plan = _plan(T, config.lags, None, config.kernel, config.correction,
                     config.ridge_factor, True)
    except StationarityTestError as exc:
        exc.args = (f"replication 0 (stream 0): {exc}",)
        raise
    n = innovation_count(model, gen)
    rows = max(1, _CHUNK_ELEMENTS // n)
    key = (model, T, burn_in, config.master_seed, config.replications, rows,
           config.kernel, config.ridge_factor)
    kept = _SPECTRA.get(key)
    fresh, size = [], 0
    for i, start in enumerate(range(0, config.replications, rows)):
        name = lambda row: f"replication {start + row} (stream {start + row}): "  # noqa: E731
        if kept is None:
            stop = min(start + rows, config.replications)
            X = _filter_rows(model, _gauss_rows(config.master_seed, start, stop, n), T, burn_in)
            bad, exponents = _scan_rows(X)
            if bad is not None:
                raise InputError(name(bad[0]) + bad[1])
            S = _block_source(X, plan, exponents)
            size += S.nbytes
            fresh = fresh + [S] if size <= _SPECTRA.max_bytes else []  # outgrown: drop all
        yield _block_terms(S if kept is None else kept[i], plan, name)[1]
    if fresh:  # empty when the study was kept already or outgrew the bound
        _SPECTRA.put(key, tuple(fresh), fresh)


def rejection_rate(config: McConfig) -> McReport:
    """Replicate the test and report the exact rejection fraction.

    Replication i draws from stream i; a failure in any replication aborts
    the study with the lowest failing replication index attached. The
    replications run in blocks (see the module notes): ``statistics[i]``
    equals ``stationarity_test`` on ``generate`` of stream i bit for bit,
    whatever the chunking, and memory does not grow with the replication
    count beyond the statistics array.
    """
    threshold = chisq_quantile(1.0 - config.level, 2 * len(config.lags))
    stats = config.T * np.concatenate([Q.sum(axis=-1) for Q in _replications(config)])
    rate = float(np.count_nonzero(stats > threshold)) / config.replications
    return McReport(
        rejection_rate=rate,
        statistics=stats,
        threshold=threshold,
        config=config,
    )


_DENSITY_BINS = 50


def _empirical_density(statistics) -> tuple[np.ndarray, np.ndarray]:
    """Normalized histogram (area one) of test statistics over [0, max] in
    ``_DENSITY_BINS`` bins."""
    stats = np.asarray(statistics, dtype=float)
    if stats.size == 0:
        raise InputError("the empirical density needs at least one statistic")
    top = float(stats.max())
    if top <= 0.0:
        top = 1.0
    density, edges = np.histogram(stats, bins=_DENSITY_BINS, range=(0.0, top), density=True)
    return edges, density


def lag_scan(model: ModelSpec, T: int, lags, **study) -> np.ndarray:
    """Rejection rate of the single-lag test at each requested lag.

    The arguments form an ``McConfig``, ``study`` taking its other fields by
    keyword with its defaults. Each lag's statistic is its term of the full
    statistic (``TestResult.contributions``), which equals
    ``stationarity_test`` at that one lag bit for bit, so all lags share a
    replication's transform and spectral estimate. Replications run in
    blocks as in ``rejection_rate``, replication i on stream i.
    """
    config = McConfig(model=model, T=T, lags=lags, **study)
    threshold = chisq_quantile(1.0 - config.level, 2)
    rejections = sum(np.count_nonzero(config.T * Q > threshold, axis=0)
                     for Q in _replications(config))
    return rejections / config.replications


# ---------------------------------------------------------------------------
# power diagnostics for locally stationary alternatives
# ---------------------------------------------------------------------------


def _eval_local(f_local, u, w) -> np.ndarray:
    """f on the (u, w) grid as a read-only view of f's output, which is
    broadcast to the grid if smaller and never copied. Checked by min/max,
    which are exact, over the distinct cells: stride-0 axes cut to length one."""
    vals = np.asarray(f_local(u[:, None], w[None, :]), dtype=float)
    grid = np.broadcast_to(vals, (u.size, w.size))
    cells = grid[tuple(slice(None if s else 1) for s in grid.strides)]
    lo, hi = cells.min(), cells.max()  # a NaN anywhere makes both NaN
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ComputationError("local spectrum produced non-finite values")
    if lo < 0.0:
        raise ComputationError("local spectrum produced negative values")
    return grid


def _trapezoid(g: np.ndarray) -> np.ndarray:
    """The trapezoid rule along axis 0 over the uniform grid j/N, j = 0..N,
    as a mean: (sums of g[:N] + (g[N] - g[0])/2) / N, no BLAS product."""
    N = g.shape[0] - 1
    return (g[:N].sum(axis=0) + 0.5 * (g[N] - g[0])) / N


def _time_average(vals: np.ndarray) -> np.ndarray:
    """fbar, the trapezoid rule over u, checked to be at least 1e-10 at
    every frequency."""
    fbar = _trapezoid(vals)
    if np.any(fbar < 1e-10):
        raise ComputationError("integrated spectrum below 1e-10")
    return fbar


_GRID_PIECE = 2 ** 17  # bytes of u-transform output per piece, so it stays in L2


def _u_fourier(vals: np.ndarray, lags) -> np.ndarray:
    """Trapezoid rule of vals[j] * exp(-2*pi*i*r*u_j) over the uniform grid
    u_j = j/N, j = 0..N, for each integer lag r: shape (L, w), or (L, 1) if
    vals has stride 0 along w, whose one column is transformed once.

    As exp(-2*pi*i*r*u_N) = 1 = exp(-2*pi*i*r*u_0), the sum is the length-N
    DFT of vals[:N] at r mod N plus the end correction (vals[N] - vals[0])/2,
    all over N. Pieces of columns go through one reused buffer of at most
    ``_GRID_PIECE`` bytes (or one column), which keeps only the lags' rows;
    a column's bits do not depend on the piece width, nor on how many
    columns there are. Being a transform and not a BLAS product, the result
    does not depend on the BLAS thread count.
    """
    if vals.strides[1] == 0:
        vals = vals[:, :1]
    N = vals.shape[0] - 1
    k = np.array([r % N for r in lags])  # reduced as Python ints: a lag of any size
    above = k > N // 2  # the DFT at k is conj of the DFT at N - k
    rows = np.where(above, N - k, k)
    width = max(1, _GRID_PIECE // (16 * (N // 2 + 1)))
    buf = np.empty((N // 2 + 1, width), dtype=complex)
    out = np.empty((k.size, vals.shape[1]), dtype=complex)
    for c in range(0, vals.shape[1], width):
        piece = vals[:N, c:c + width]
        out[:, c:c + width] = np.fft.rfft(piece, axis=0, out=buf[:, :piece.shape[1]])[rows]
    out[above] = out[above].conj()
    out += 0.5 * (vals[N] - vals[0])
    out /= N
    return out


@dataclass(frozen=True)
class PowerProfile:
    """Noncentrality B(r) over a set of lags."""

    lags: tuple[int, ...]
    B_values: np.ndarray


def power_profile(f_local: Callable, lags, u_points: int = 257,
                  omega_points: int = 513, T: Optional[int] = None) -> PowerProfile:
    """Limit B(r) of the standardized DFT covariance under local stationarity,
    per lag:

        B(r) = (2*pi)**-1 * integral over [0, 2pi] of
               [fbar(w) * fbar(w + w_r)]**-0.5
               * integral_0^1 f(u, w) exp(-2*pi*i*r*u) du  dw

    where fbar(w) = integral_0^1 f(u, w) du. With ``T`` given,
    w_r = 2*pi*r/T; otherwise w_r = 0, the limit for fixed r as T grows.
    B vanishes exactly when f does not depend on u, and its magnitude at
    lag r drives the test's power there.

    All lags share one trapezoid quadrature on the (u_points, omega_points)
    grid: f is evaluated once on it and its output read as returned (a
    smaller output is broadcast, never copied, and never written to), and
    checked once per distinct cell. fbar is its column sums with the end
    correction, and the u-integrals of all L lags come from real FFTs of the
    grid along u, a few columns at a time (``_u_fourier``), or of one column
    when f is constant in w. The quadrature allocates nothing the size of
    the grid beyond what f returns. A lag r enters only as r mod
    (u_points - 1) and, with ``T``, r mod T, so a lag of any size is exact.
    With ``T`` given and n = omega_points - 1 grid steps, a lag whose shift
    is whole steps, (n * r) % T == 0, takes fbar(w + w_r) as fbar rolled by
    n * r / T steps, with no evaluation. Any other lag costs one more grid
    evaluation, reduced to its row before the next, so memory stays at about
    one grid for any number of lags.
    """
    lags = tuple(_checked_int(r, "lag") for r in _as_tuple(lags, "lags"))
    if not lags:
        raise InputError("at least one lag is required")
    u_points = _checked_int(u_points, "u_points")
    omega_points = _checked_int(omega_points, "omega_points")
    if u_points < 128 or omega_points < 256:
        raise InputError(
            f"quadrature grid must be at least 128 x 256, got {u_points} x {omega_points}"
        )
    if 0 in lags:
        raise InputError("lag r must be nonzero")
    if T is not None:
        T = _checked_int(T, "T", positive=True)
    u = np.linspace(0.0, 1.0, u_points)
    w = np.linspace(0.0, math.tau, omega_points)
    vals = _eval_local(f_local, u, w)
    fbar = _time_average(vals)
    inner = _u_fourier(vals, lags)
    if T is None:
        integrand = inner / fbar
    else:
        n = w.size - 1
        whole = [lag * n % T == 0 for lag in lags]  # shifts reduced as Python ints: exact
        s = np.array([(lag * n // T) % n for lag, ok in zip(lags, whole) if ok], dtype=np.intp)
        root = np.sqrt(fbar)  # sqrt(fbar)[i] is sqrt(fbar[i]): the rows are one gather
        shifted = np.empty((len(lags), w.size))  # sqrt(fbar(w + w_r)) per lag
        shifted[whole] = root[(np.arange(w.size) + s[:, None]) % n]
        for row, lag, ok in zip(shifted, lags, whole):
            if not ok:
                row[:] = np.sqrt(_time_average(
                    _eval_local(f_local, u, (w + math.tau * (lag % T) / T) % math.tau)))
        integrand = inner / (root * shifted)
    bad = ~np.isfinite(integrand)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ComputationError(
            f"non-finite integrand value at lag r={lags[i]}, omega={w[j]!r}"
        )
    return PowerProfile(lags=lags, B_values=_trapezoid(integrand.T))
