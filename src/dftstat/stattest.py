"""Stationarity test core.

The standardized DFT covariance at lag r is

    c_hat(r) = (1/T) * sum_{k=1..T} J(w_k) * conj(J(w_{k+r}))
                               / sqrt(fhat(w_k) * fhat(w_{k+r})),

with all frequency indices taken modulo T. Under second order stationarity
the standardized DFT sequence is close to uncorrelated, so sqrt(T) times the
real and imaginary parts of c_hat(r) are asymptotically standard normal (up
to a fourth-cumulant correction) and the Portmanteau statistic

    stat = T * sum_n |c_hat(r_n)|^2 / denom_n

is asymptotically chi-square with 2m degrees of freedom. Lags 0 and T/2 are
excluded: at those lags the two DFT factors coincide (or are conjugate) and
the covariance degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTransferError,
    InvalidCorrectionError,
    InvalidInputError,
    InvalidLagError,
    SegmentationDepthError,
)
from .numerics import _dft_rows, chisq_sf
from .spectral import KernelSpec, _smooth_rows, _smoother

_TWO_PI = 2.0 * math.pi

MIN_SERIES_LENGTH = 32
DEFAULT_LEVELS = (0.01, 0.05, 0.10)


def validate_lags(lags, T: int) -> tuple[int, ...]:
    """Check every lag lies in 1..T-1 and avoids the excluded value T/2."""
    out = []
    for r in lags:
        if int(r) != r:
            raise InvalidLagError(f"lag must be an integer, got {r!r}")
        r = int(r)
        if r < 1 or r > T - 1:
            raise InvalidLagError(f"lag {r} outside the valid range 1..{T - 1}")
        if T % 2 == 0 and r == T // 2:
            raise InvalidLagError(f"lag {r} equals T/2 and is excluded for T={T}")
        out.append(r)
    if not out:
        raise InvalidLagError("at least one lag is required")
    return tuple(out)


def _checked_level(level) -> float:
    """A significance level, which must lie in (0, 1)."""
    if not (0.0 < level < 1.0):
        raise InvalidInputError(f"level must be in (0, 1), got {level}")
    return float(level)


# ---------------------------------------------------------------------------
# standardized DFT covariances
# ---------------------------------------------------------------------------


def _lag_covariances(J: np.ndarray, f: np.ndarray, lags) -> np.ndarray:
    """The covariance kernel: c(r) for every row of J (last axis k = 1..T).

    The transform is standardized once, Z = J / sqrt(f), and each lag is one
    product-mean c(r) = mean_k Z_k * conj(Z_{k+r}) over the last axis, with
    k + r taken modulo T. Returns shape ``J.shape[:-1] + (len(lags),)``. Each
    row is reduced on its own, so its values do not depend on the block.
    """
    Z = J / np.sqrt(f)
    T = Z.shape[-1]
    Zc2 = np.conj(np.concatenate([Z, Z], axis=-1))  # Zc2[..., k + r] == conj(Z_{(k+r) mod T})
    out = np.empty(Z.shape[:-1] + (len(lags),), dtype=complex)
    for n, r in enumerate(lags):
        out[..., n] = np.mean(Z * Zc2[..., r: r + T], axis=-1)
    return out


@dataclass(frozen=True)
class DftCovariances:
    """Standardized DFT covariances at several lags plus their correction
    denominators 1 + kappa_r / 2 (all one in Gaussian mode)."""

    lags: tuple[int, ...]
    values: np.ndarray        # complex, one entry per lag
    corrections: np.ndarray   # positive reals, aligned with lags
    T: int


# ---------------------------------------------------------------------------
# transfer phase and the fourth-cumulant correction
# ---------------------------------------------------------------------------


def _transfer(psi: np.ndarray, omega):
    """A(w) = (2*pi)**-0.5 * sum_j psi_j exp(i*w*j) for a causal filter."""
    w = np.asarray(omega, dtype=float)
    j = np.arange(psi.size)
    vals = np.exp(1j * np.multiply.outer(w, j)) @ psi / math.sqrt(_TWO_PI)
    return vals


def phase_coherence(psi, x: float, grid: int = 2048) -> float:
    """Squared modulus of the mean phase twist over one frequency period.

    Computes |(2*pi)**-1 * integral_0^2pi exp(i*(phi(w) - phi(w+x))) dw|^2
    where phi is the transfer phase. Always in [0, 1]; equals 1 at x = 0.
    The integrand is evaluated as A(w) * conj(A(w+x)) / |A(w) A(w+x)| so no
    branch choice for phi is needed.
    """
    if grid < 1024:
        raise InvalidInputError(f"quadrature grid must be >= 1024, got {grid}")
    p = np.asarray(psi, dtype=float)
    if p.ndim != 1 or p.size == 0 or p[0] == 0.0:
        raise InvalidInputError("psi must be a nonempty coefficient vector with psi[0] != 0")
    w = _TWO_PI * np.arange(grid) / grid  # periodic integrand: left rule is exact trapezoid
    a0 = _transfer(p, w)
    a1 = _transfer(p, w + x)
    mod = np.abs(a0) * np.abs(a1)
    if np.any(mod < 1e-24):
        raise DegenerateTransferError("transfer function modulus below 1e-12")
    mean = np.mean(a0 * np.conj(a1) / mod)
    return min(float(abs(mean) ** 2), 1.0)


@dataclass(frozen=True)
class CorrectionSpec:
    """How to build the denominators 1 + kappa_r / 2 of the test statistic.

    Modes
    -----
    gaussian
        kappa_r = 0 for every lag (the default; exact for Gaussian
        innovations, whose fourth cumulant vanishes).
    linear_plugin
        The linear-process form kappa_r = kappa4 * phase_coherence(psi, w_r)
        with user-supplied MA(inf) coefficients psi and innovation fourth
        cumulant kappa4.
    user
        Explicit kappa_r values, one per lag.
    """

    mode: str = "gaussian"
    psi: tuple = ()
    kappa4: float = 0.0
    kappa: tuple = ()

    def __post_init__(self):
        if self.mode not in ("gaussian", "linear_plugin", "user"):
            raise InvalidInputError(f"unknown correction mode {self.mode!r}")
        if self.mode == "linear_plugin":
            p = np.asarray(self.psi, dtype=float)
            if p.size == 0 or not np.all(np.isfinite(p)) or p[0] == 0.0:
                raise InvalidInputError(
                    "linear_plugin correction needs finite psi with psi[0] != 0"
                )
        if self.mode == "user" and len(self.kappa) == 0:
            raise InvalidInputError("user correction needs explicit kappa values")

    @classmethod
    def gaussian(cls) -> "CorrectionSpec":
        return cls()

    @classmethod
    def linear(cls, psi, kappa4: float) -> "CorrectionSpec":
        return cls(mode="linear_plugin", psi=tuple(float(v) for v in psi),
                   kappa4=float(kappa4))

    @classmethod
    def user(cls, kappa) -> "CorrectionSpec":
        return cls(mode="user", kappa=tuple(float(v) for v in kappa))


def correction_denominators(spec: CorrectionSpec, lags, T: int) -> np.ndarray:
    """Denominators 1 + kappa_r / 2 for each requested lag."""
    lags = tuple(int(r) for r in lags)
    if spec.mode == "gaussian":
        denom = np.ones(len(lags))
    elif spec.mode == "linear_plugin":
        denom = np.array(
            [1.0 + 0.5 * spec.kappa4 * phase_coherence(spec.psi, _TWO_PI * r / T)
             for r in lags]
        )
    else:  # user
        if len(spec.kappa) != len(lags):
            raise InvalidInputError(
                f"user correction has {len(spec.kappa)} kappa values for {len(lags)} lags"
            )
        denom = 1.0 + 0.5 * np.asarray(spec.kappa, dtype=float)
    if np.any(denom <= 0.0):
        raise InvalidCorrectionError("correction denominator is not positive")
    return denom


# ---------------------------------------------------------------------------
# the Portmanteau statistic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    """Outcome of one stationarity test plus the configuration that made it."""

    statistic: float
    dof: int
    p_value: float
    reject_at: dict[float, bool]
    lags: tuple[int, ...]
    T: int
    kernel: KernelSpec
    ridge_factor: float
    correction_mode: str
    demeaned: bool


@dataclass(frozen=True)
class _TestPlan:
    """What a test needs besides the data, worked out once per series length:
    the lags, the kernel with its bandwidth resolved, its weights and the
    correction denominators."""

    T: int
    lags: tuple[int, ...]
    kernel: KernelSpec
    weights: np.ndarray
    corrections: np.ndarray
    ridge_factor: float
    demean: bool


def _plan(T, lags, m, kernel, correction, ridge_factor, demean) -> _TestPlan:
    kern, weights = _smoother(kernel, T, ridge_factor)
    lags = validate_lags(range(1, m + 1) if lags is None else lags, T)
    corr = correction_denominators(correction or CorrectionSpec(), lags, T)
    return _TestPlan(T=T, lags=lags, kernel=kern, weights=weights,
                     corrections=corr, ridge_factor=ridge_factor, demean=demean)


def _first_bad_row(X: np.ndarray):
    """(row, reason) of the lowest row of X that cannot be tested, else None."""
    finite = np.isfinite(X).all(axis=-1)
    flat = X.max(axis=-1) == X.min(axis=-1)
    bad = np.flatnonzero(~finite | flat)
    if bad.size == 0:
        return None
    i = int(bad[0])
    if not finite[i]:
        return i, "series contains non-finite values"
    return i, "degenerate series: zero variance"


def _block_covariances(X: np.ndarray, plan: _TestPlan) -> np.ndarray:
    """Standardized covariances at the plan's lags for each row of X.

    X holds one series per row, already checked by ``_first_bad_row``.
    Rows are processed independently: row i of the result is bit-identical
    whether X holds one row or many.
    """
    if plan.demean:
        X = X - X.mean(axis=-1, keepdims=True)
    J = _dft_rows(X)
    f, _ = _smooth_rows(np.abs(J) ** 2, plan.weights, plan.ridge_factor)
    return _lag_covariances(J, f, plan.lags)


def _statistics(C: np.ndarray, plan: _TestPlan) -> np.ndarray:
    """Portmanteau statistic of each row of covariances C."""
    return plan.T * np.sum(np.abs(C) ** 2 / plan.corrections, axis=-1)


def _checked_series(series) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError(f"series must be 1-d, got shape {x.shape}")
    return x


def _checked_rows(X: np.ndarray) -> np.ndarray:
    if X.shape[-1] < MIN_SERIES_LENGTH:
        raise InvalidInputError(
            f"series too short for the test: T={X.shape[-1]} < {MIN_SERIES_LENGTH}"
        )
    bad = _first_bad_row(X)
    if bad is not None:
        raise InvalidInputError(bad[1])
    return X


def dft_covariances(series, lags=None, m: int = 4, kernel: KernelSpec | None = None,
                    correction: CorrectionSpec | None = None,
                    ridge_factor: float = 1e-3, demean: bool = True) -> DftCovariances:
    """Standardized covariances (and denominators) at several lags.

    The DFT and the spectral estimate are computed once, and the transform
    is standardized once; each further lag is one product-mean over the T
    standardized ordinates.
    """
    X = _checked_rows(_checked_series(series)[None, :])
    plan = _plan(X.shape[1], lags, m, kernel, correction, ridge_factor, demean)
    return DftCovariances(lags=plan.lags, values=_block_covariances(X, plan)[0],
                          corrections=plan.corrections, T=plan.T)


def _test_rows(X, lags, m, kernel, correction, ridge_factor, demean,
               levels) -> list[TestResult]:
    """``stationarity_test`` of every row of X; the rows share one plan."""
    levels = tuple(_checked_level(a) for a in levels)
    X = _checked_rows(X)
    plan = _plan(X.shape[1], lags, m, kernel, correction, ridge_factor, demean)
    stats = _statistics(_block_covariances(X, plan), plan)
    dof = 2 * len(plan.lags)
    mode = (correction or CorrectionSpec()).mode
    results = []
    for stat in stats:
        stat = float(stat)
        p = chisq_sf(stat, dof)
        results.append(TestResult(
            statistic=stat,
            dof=dof,
            p_value=p,
            reject_at={a: bool(p < a) for a in levels},
            lags=plan.lags,
            T=plan.T,
            kernel=plan.kernel,  # bandwidth resolved against this T
            ridge_factor=ridge_factor,
            correction_mode=mode,
            demeaned=demean,
        ))
    return results


def stationarity_test(series, lags=None, m: int = 4, kernel: KernelSpec | None = None,
                      correction: CorrectionSpec | None = None,
                      ridge_factor: float = 1e-3, demean: bool = True,
                      levels=DEFAULT_LEVELS) -> TestResult:
    """Portmanteau test of second order stationarity.

    Parameters
    ----------
    series : array_like
        Observations, length at least 32. The sample mean is removed before
        the transform unless ``demean`` is False.
    lags : iterable of int, optional
        Lags r_1..r_m; default is the consecutive lags 1..m.
    m : int
        Number of consecutive lags when ``lags`` is not given.
    kernel : KernelSpec, optional
        Smoothing kernel for the spectral denominator (default daniell with
        automatic bandwidth T**-1/3).
    correction : CorrectionSpec, optional
        Fourth-cumulant correction; default Gaussian (no correction).
    ridge_factor : float
        Relative ridge for the spectral floor.
    demean : bool
        Subtract the sample mean first (annihilates the zero-frequency DFT).
    levels : iterable of float
        Significance levels for the decision map.

    Returns
    -------
    TestResult
        statistic, degrees of freedom 2m, p-value and per-level decisions.

    Notes
    -----
    The series runs through the same block pipeline as the Monte Carlo
    functions, as a block of one row, so a replication's statistic there
    equals this function's on the same series bit for bit.
    """
    x = _checked_series(series)
    return _test_rows(x[None, :], lags, m, kernel, correction, ridge_factor, demean,
                      levels)[0]


# ---------------------------------------------------------------------------
# recursive segmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentBlock:
    """One tested block: half-open index range [start, stop) of the input."""

    depth: int
    index: int
    start: int
    stop: int
    result: TestResult


@dataclass(frozen=True)
class SegmentReport:
    """Tests on nested dyadic blocks, depth 0 (full series) through depth d."""

    T: int
    depth: int
    blocks: tuple[SegmentBlock, ...] = field(repr=False)

    def at_depth(self, d: int) -> tuple[SegmentBlock, ...]:
        return tuple(b for b in self.blocks if b.depth == d)


def _block_bounds(T: int, depth: int) -> list[tuple[int, int]]:
    n = 2 ** depth
    base = T // n
    bounds = [(i * base, (i + 1) * base) for i in range(n - 1)]
    bounds.append(((n - 1) * base, T))  # remainder goes to the last block
    return bounds


def segmented_test(series, depth: int, lags=None, m: int = 4,
                   kernel: KernelSpec | None = None,
                   correction: CorrectionSpec | None = None,
                   ridge_factor: float = 1e-3, demean: bool = True,
                   levels=DEFAULT_LEVELS) -> SegmentReport:
    """Run the stationarity test on every dyadic block up to ``depth``.

    Depth j splits the series into 2**j contiguous blocks of equal length
    (any remainder joins the last block); depth 0 is the full-series test.
    When the kernel bandwidth is automatic it adapts to each block length.

    Each depth runs as one batch: its equal-length blocks are the rows of a
    single (rows, length) block, and a last block that carries a remainder
    runs as a batch of one. Rows are tested independently, so every block's
    result equals ``stationarity_test`` on that block bit for bit. Memory is
    that of the series plus one transform of it per depth.
    """
    x = _checked_series(series)
    T = x.size
    if depth < 0:
        raise InvalidInputError(f"depth must be >= 0, got {depth}")
    leaf = min(b - a for a, b in _block_bounds(T, depth))
    if leaf < MIN_SERIES_LENGTH:
        raise SegmentationDepthError(
            f"depth {depth} gives leaf blocks of length {leaf} < {MIN_SERIES_LENGTH}"
        )
    blocks = []
    for d in range(depth + 1):
        bounds = _block_bounds(T, d)
        base = bounds[0][1] - bounds[0][0]
        equal = len(bounds) if T % len(bounds) == 0 else len(bounds) - 1
        results = _test_rows(x[: equal * base].reshape(equal, base), lags, m, kernel,
                             correction, ridge_factor, demean, levels)
        if equal < len(bounds):
            results += _test_rows(x[None, bounds[-1][0]:], lags, m, kernel, correction,
                                  ridge_factor, demean, levels)
        blocks += [SegmentBlock(depth=d, index=i, start=a, stop=b, result=res)
                   for i, ((a, b), res) in enumerate(zip(bounds, results))]
    return SegmentReport(T=T, depth=depth, blocks=tuple(blocks))
