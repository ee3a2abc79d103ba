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

Equivalently, c_hat(r) = rfft(y**2)[r] / T**2 with

    y_t = sum_{k=1..T} J(w_k) * exp(-i*t*w_k) / sqrt(fhat(w_k)),

which is real since fhat is symmetric: the series prewhitened by its own
spectral estimate. The test reads the low Fourier coefficients of the
local variance of the prewhitened series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, InputError, _as_tuple, _checked_int, _of_type, _within
from .numerics import _fast_length, _half_dft_rows, _Memo, _real_array, _rfft_at, chisq_sf
from .spectral import KernelSpec, _smooth_half, _smoother

_MAX_FLOAT = float(np.finfo(float).max)

MIN_SERIES_LENGTH = 32
_DEFAULT_M = 4  # the count of consecutive lags tested when none are given
DEFAULT_LEVELS = (0.01, 0.05, 0.10)


def _consecutive_lags(m: int, T: int) -> range:
    """The consecutive lags 1..m, cut at T: lags from T on are all invalid,
    so 1..min(m, T) fails validation at the same first bad lag as 1..m,
    without building a huge m's lags first."""
    return range(1, min(_checked_int(m, "m"), T) + 1)


def validate_lags(lags, T: int) -> tuple[int, ...]:
    """Check every lag is an integer in 1..T-1 other than the excluded T/2.

    Returns the lags as a tuple of ints. A list of ints (numpy's too) is
    checked in one pass of C-level calls; any other list goes lag by lag,
    and a bad one raises InputError for its first bad lag.
    """
    lags = _as_tuple(lags, "lags")
    try:
        out = tuple(map(operator.index, lags))
    except TypeError:  # a float, a fraction, None, ...
        out = ()
    if out and min(out) >= 1 and max(out) < T and (T % 2 or T // 2 not in out):
        return out
    out = []
    for r in lags:
        r = _checked_int(r, "lag")
        if r < 1 or r > T - 1:
            raise InputError(f"lag {r} outside the valid range 1..{T - 1}")
        if T % 2 == 0 and r == T // 2:
            raise InputError(f"lag {r} equals T/2 and is excluded for T={T}")
        out.append(r)
    if not out:
        raise InputError("at least one lag is required")
    return tuple(out)


def _checked_level(level) -> float:
    """A significance level, which must lie in (0, 1)."""
    if not _within(level, 0.0, 1.0):
        raise InputError(f"level must be in (0, 1), got {level}")
    return float(level)


# ---------------------------------------------------------------------------
# standardized DFT covariances
# ---------------------------------------------------------------------------


# np.einsum sums a row of a many-row block in pieces of its 8192-point buffer,
# and a row alone in one go, so the loop route sums pieces of at most that
# length itself: a row's bits then do not depend on the rows beside it
_EINSUM_PIECE = 8192


def _pieces(a: int, b: int):
    """(start, stop) of the pieces of range(a, b), each _EINSUM_PIECE long
    but the last."""
    return ((s, min(s + _EINSUM_PIECE, b)) for s in range(a, b, _EINSUM_PIECE))


def _lag_source(Zh: np.ndarray, plan: _TestPlan, work: np.ndarray | None = None) -> np.ndarray:
    """The covariance kernel's first step, all its work that does not depend
    on the lags: the array S that ``_read_lags`` reads c(r) from at any lags.

    Zh holds conj(Z_k) at k = 0..T//2 (last axis), where Z = J / sqrt(f) is
    the standardized DFT; it is Hermitian, since J is the transform of a
    real series and the smoothed spectrum is symmetric, so this half holds
    all of it. c(r) = mean_k Z_k * conj(Z_{k+r}), k + r taken modulo T, of
    shape ``Zh.shape[:-1] + (len(lags),)``. Each row is reduced on its own,
    so its values do not depend on the block. The transform route returns
    rfft(y**2) written over Zh, with y written to ``work``, a C-ordered real
    array of shape ``Zh.shape[:-1] + (T,)`` (a new one when None); the loop
    route returns Zh and leaves both alone.

    Two routes give the same numbers to rounding:

    transform
        y = irfft of Zh (unnormalized) is real: the series prewhitened by
        its own spectral estimate. Then c(r) = rfft(y**2)[r] / T**2 for
        r <= T/2 and conj(c(T - r)) above, every lag for two real
        transforms.
    loop
        One pass over half the circle per lag, O(L*T/2). With q = min(r,
        T - r), c(r) is c(q) or, above T/2, its conjugate. The terms
        p_k = Z_k * conj(Z_{k+q}) are equal at k and T - q - k, so
        T * c(q) is twice their sum over -q/2 < k < (T - q)/2, plus the
        fixed points p_{-q/2} (q even) and p_{(T-q)/2} (T - q even). Every
        lag reads W_j = conj(Z_j) and V = conj(W), j from -floor(Q/2) to
        floor((T + Q)/2) for the largest folded lag Q, both built once from
        Zh by slices. The sum is ``np.einsum`` over pieces of 8192 points,
        not BLAS, whose results can depend on the thread count.

    The transform route runs whenever T is 5-smooth (``plan.transform``), the
    loop otherwise. The route depends on T alone, so a lag's c(r) is the same
    bits whatever the other lags and rows: a 5-smooth T stays on the
    transforms even for a few lags at large T, where the loop is faster, so
    that each of ``lag_scan``'s per-lag terms equals the one-lag test. Other
    T stay on the loop whatever L, since numpy's real transforms of such
    lengths cost several times those of a 5-smooth one, more than the loop's
    passes (README.md, "Performance notes").
    """
    if not plan.transform:
        return Zh
    y = np.fft.irfft(Zh, plan.T, axis=-1, norm="forward", out=work)
    np.square(y, out=y)
    return np.fft.rfft(y, axis=-1, out=Zh)


def _read_lags(S: np.ndarray, plan: _TestPlan) -> np.ndarray:
    """The covariance kernel's second step: c(r) at the plan's lags, read from S."""
    T, lags = plan.T, plan.lags
    if plan.transform:
        return _rfft_at(S, lags, T) / T ** 2
    h = T // 2
    q = [min(r, T - r) for r in lags]
    o, top = max(q) // 2, (T + max(q)) // 2  # W[..., o + j] = conj(Z_j), j = -o..top
    W = np.empty(S.shape[:-1] + (o + top + 1,), dtype=complex)
    np.conjugate(S[..., o:0:-1], out=W[..., :o])  # j < 0: Z_{-j}
    W[..., o:o + h + 1] = S
    np.conjugate(S[..., T - h - 1:T - top - 1:-1], out=W[..., o + h + 1:])  # Z_{T-j}
    V = np.conjugate(W)
    out = np.empty(S.shape[:-1] + (len(lags),), dtype=complex)
    for n, qn in enumerate(q):
        a, b = o - (qn - 1) // 2, o + (T - qn + 1) // 2  # -q/2 < k < (T - q)/2
        out[..., n] = sum(np.einsum("...k,...k->...", V[..., s:e], W[..., s + qn:e + qn])
                          for s, e in _pieces(a, b))
    out *= 2.0
    # the fixed points of k -> T - q - k: k = -q/2 (q even), (T - q)/2 (T - q even)
    for fixed in ([(n, -qn // 2, qn) for n, qn in enumerate(q) if qn % 2 == 0],
                  [(n, (T - qn) // 2, qn) for n, qn in enumerate(q) if (T - qn) % 2 == 0]):
        if fixed:
            n, k, qk = np.array(fixed).T
            out[..., n] += V[..., o + k] * W[..., o + k + qk]
    out /= T
    above = [n for n, r in enumerate(lags) if r > h]  # c(r) = conj(c(T - r))
    if above:
        out[..., above] = np.conj(out[..., above])
    return out


# ---------------------------------------------------------------------------
# transfer phase and the fourth-cumulant correction
# ---------------------------------------------------------------------------


def _transfer(psi: np.ndarray, omega):
    """A(w) = (2*pi)**-0.5 * sum_j psi_j exp(i*w*j) for a causal filter."""
    w = np.asarray(omega, dtype=float)
    j = np.arange(psi.size)
    return np.exp(1j * np.multiply.outer(w, j)) @ psi / math.sqrt(math.tau)


def _phase_coherence(psi, x: float, grid: int = 2048) -> float:
    """Squared modulus of the mean phase twist over one frequency period.

    Computes |(2*pi)**-1 * integral_0^2pi exp(i*(phi(w) - phi(w+x))) dw|^2
    where phi is the transfer phase. Always in [0, 1]; equals 1 at x = 0.
    The integrand is evaluated as A(w) * conj(A(w+x)) / |A(w) A(w+x)| so no
    branch choice for phi is needed.
    """
    p = np.asarray(psi, dtype=float)  # checked by CorrectionSpec
    w = math.tau * np.arange(grid) / grid  # periodic integrand: left rule is exact trapezoid
    a0 = _transfer(p, w)
    a1 = _transfer(p, w + x)
    mod = np.abs(a0) * np.abs(a1)
    if np.any(mod < 1e-24):
        raise ComputationError("transfer function modulus below 1e-12")
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
        The linear-process form kappa_r = kappa4 * (phase coherence of psi
        at w_r) with user-supplied MA(inf) coefficients psi and innovation
        fourth cumulant kappa4.
    user
        Explicit kappa_r values, one per lag.
    """

    mode: str = "gaussian"
    psi: tuple = ()
    kappa4: float = 0.0
    kappa: tuple = ()

    def __post_init__(self):
        if self.mode not in ("gaussian", "linear_plugin", "user"):
            raise InputError(f"unknown correction mode {self.mode!r}")
        if self.mode == "linear_plugin":
            p = np.asarray(self.psi, dtype=float)
            if p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p)) or p[0] == 0.0:
                raise InputError("linear_plugin correction needs finite psi with psi[0] != 0")
            if not _within(self.kappa4, -math.inf, math.inf):
                raise InputError(f"kappa4 must be a finite number, got {self.kappa4!r}")
        if self.mode == "user" and len(_as_tuple(self.kappa, "kappa")) == 0:
            raise InputError("user correction needs explicit kappa values")
        if self.mode == "user" and not all(_within(k, -math.inf, math.inf) for k in self.kappa):
            raise InputError(f"kappa values must be finite numbers, got {self.kappa}")

    @classmethod
    def linear(cls, psi, kappa4: float) -> "CorrectionSpec":
        return cls(mode="linear_plugin", psi=tuple(float(v) for v in psi),
                   kappa4=float(kappa4))

    @classmethod
    def user(cls, kappa) -> "CorrectionSpec":
        return cls(mode="user", kappa=tuple(float(v) for v in kappa))


def _correction_denominators(spec: CorrectionSpec, lags, T: int) -> np.ndarray:
    """Denominators 1 + kappa_r / 2 for each requested (validated) lag."""
    if _of_type(spec, "correction", CorrectionSpec).mode == "gaussian":
        return np.ones(len(lags))
    if spec.mode == "linear_plugin":
        denom = np.array(
            [1.0 + 0.5 * spec.kappa4 * _phase_coherence(spec.psi, math.tau * r / T)
             for r in lags]
        )
    else:  # user
        if len(spec.kappa) != len(lags):
            raise InputError(
                f"user correction has {len(spec.kappa)} kappa values for {len(lags)} lags"
            )
        denom = 1.0 + 0.5 * np.asarray(spec.kappa, dtype=float)
    if np.any(denom <= 0.0):
        raise InputError("correction denominator is not positive")
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
    covariances: tuple[complex, ...]   # c(r), in lags order
    contributions: tuple[float, ...]   # single-lag statistics; sum = statistic up to rounding
    T: int
    kernel: KernelSpec
    ridge_factor: float
    correction_mode: str
    demeaned: bool


@dataclass(frozen=True)
class _TestPlan:
    """What a test needs besides the data, worked out once per series length:
    the lags, the resolved kernel, its window half-width, the smoothing
    transform length and the weights' transform at it, the correction
    denominators and the covariance route (``_lag_source``)."""

    T: int
    lags: tuple[int, ...]
    kernel: KernelSpec
    half_width: int
    smooth_length: int
    weight_spectrum: np.ndarray
    corrections: np.ndarray
    ridge_factor: float
    demean: bool
    transform: bool


# plans by test shape, their arrays 4 MiB in all: a plan at T = 2**18 holds 1.1 MB
_PLANS = _Memo(8, 2 ** 22, lambda plan: (plan.weight_spectrum, plan.corrections))


def _plan(T, lags, m, kernel, correction, ridge_factor, demean) -> _TestPlan:
    """The plan of a test's shape, kept in ``_PLANS``, m keyed apart from the lags
    and only when they are None; a kept plan needs neither ``_smoother`` nor
    ``_fast_length``. Each call resolves the bandwidth, so each test warns."""
    if not isinstance(demean, (bool, np.bool_)):
        raise InputError(f"demean must be True or False, got {demean!r}")
    try:
        lags = lags if lags is None else tuple(lags)
    except TypeError:  # not iterable: validate_lags reports it
        pass
    key = (T, lags, m if lags is None else None, kernel, correction, ridge_factor, demean)
    plan = _PLANS.get(key)
    if plan is not None:
        (kernel or KernelSpec()).resolve_bandwidth(T)
        return plan
    kern, weights, n, spectrum = _smoother(kernel, T, ridge_factor)
    lags = validate_lags(_consecutive_lags(m, T) if lags is None else lags, T)
    corr = _correction_denominators(correction or CorrectionSpec(), lags, T)
    plan = _TestPlan(T=T, lags=lags, kernel=kern, half_width=weights.size // 2,
                     smooth_length=n, weight_spectrum=spectrum, corrections=corr,
                     ridge_factor=ridge_factor, demean=demean, transform=_fast_length(T) == T)
    _PLANS.put(key, plan)
    return plan


def _scan_rows(X: np.ndarray):
    """One look at each row of X: (bad, exponents).

    bad is (row, reason) of the lowest row that cannot be tested, else
    None. exponents, shape ``X.shape[:-1] + (1,)``, holds for each row the
    power of two of its largest |x| (``np.frexp``) rounded down to a
    multiple of 16, which ``_block_source`` divides out; it is one int
    when every row has the same, as rows of one scale do, since numpy
    multiplies by one number several times faster than by a column (None
    when a row is bad).
    """
    hi, lo = X.max(axis=-1), X.min(axis=-1)
    # a row's max and min are NaN if it holds one, and +-inf if it holds
    # them, so its largest |x| fails the bound below
    top = np.maximum(hi, -lo)
    # a DFT coefficient of the demeaned row sums T terms of up to 2 * top; the
    # factor 4 leaves a margin for the chirp-z convolution's longer transforms
    limit = _MAX_FLOAT / (4 * X.shape[-1])
    bad = np.flatnonzero(~(top < limit) | (hi == lo))
    if bad.size == 0:
        e = np.frexp(top)[1] & -16  # each row's largest |x| / 2**e is in [1/2, 2**15)
        return None, int(e[0]) if (e == e[0]).all() else e[..., None]
    i = int(bad[0])
    if not (math.isfinite(hi[i]) and math.isfinite(lo[i])):
        return (i, "series contains non-finite values"), None
    if hi[i] == lo[i]:
        return (i, "degenerate series: zero variance"), None
    return (i, f"series too large for the DFT: |x| up to {top[i]:.3g}, "
               f"where {limit:.3g} is the most for T={X.shape[-1]}"), None


# A zero of the smoothed spectrum, which only a zero ridge allows, leaves the
# standardized DFT and so c(r) non-finite there
_ZERO_SPECTRUM = ("the smoothed spectrum is zero at some frequency, so the DFT cannot be "
                  "standardized; use ridge_factor > 0")


def _block_source(X: np.ndarray, plan: _TestPlan, exponents) -> np.ndarray:
    """The array each row's standardized covariances are read from (``_lag_source``).

    X holds one series per row, already checked by ``_scan_rows``, whose
    ``exponents`` divide each row by a power of two near its largest |x|
    along with the DFT's normalization. That changes no bit of the result
    where the periodogram of X itself is in range, and keeps it in range
    at any other scale. A zero of the smoothed spectrum gives a non-finite
    row, with no warning, for the caller to report
    (``_block_terms``). Rows are processed independently: row i of
    the result is bit-identical whether X holds one row or many. The DFT,
    the smoothed spectrum and the standardized DFT are formed only at
    k = 0..T//2, which holds all of them for a real series.

    A block allocates a fixed handful of arrays, and each later stage
    reuses them in place: one real allocation holds the demeaned, rolled
    rows (later the prewhitened series y) and the padded periodogram (later
    the smoothed spectrum and its square root); the half DFT becomes the
    standardized DFT and then the transform of y**2; the smoothing product
    is the only other block-sized array. X is never written.
    """
    rows, T = X.shape
    n, H, h = plan.smooth_length, plan.half_width, T // 2
    # One allocation for both real arrays: fewer, larger blocks keep glibc
    # from trimming its heap and faulting the pages in again on every call
    # (a test at T = 2**18 took 1504 minor page faults, against 4270 with
    # two allocations and 6326 out of place).
    real = np.empty(rows * (T + n))
    work = real[:rows * T].reshape(rows, T)
    buf = real[rows * T:].reshape(rows, n)
    half = _half_dft_rows(X, plan.demean, work, exponents)
    P = buf[:, H:H + h + 1]
    np.abs(half, out=P)
    np.square(P, out=P)
    f = _smooth_half(buf, T, H, plan.weight_spectrum, plan.ridge_factor)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        half /= np.sqrt(f, out=f)
        return _lag_source(half, plan, work)


def _block_terms(S: np.ndarray, plan: _TestPlan, name):
    """(C, Q) for the rows of ``_block_source``'s S: C their covariances at
    the plan's lags and Q = |c(r)|^2 / denom_r, whose row sum times T is the
    row's statistic and whose entries times T are its single-lag statistics.
    The lowest row with a non-finite term (a zero smoothed spectrum) raises
    ComputationError, its message prefixed by ``name(row)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        C = _read_lags(S, plan)
    Q = np.abs(C) ** 2 / plan.corrections
    finite = np.isfinite(Q).all(axis=-1)
    if not finite.all():
        raise ComputationError(name(int(np.flatnonzero(~finite)[0])) + _ZERO_SPECTRUM)
    return C, Q


def _checked_series(series) -> np.ndarray:
    x = _real_array(series)
    if x.ndim != 1:
        raise InputError(f"series must be 1-d, got shape {x.shape}")
    return x


def _test_rows(X, lags, m, kernel, correction, ridge_factor, demean, levels,
               name=lambda row: "") -> list[TestResult]:
    """``stationarity_test`` of every row of X; the rows share one plan. The
    error of a row that cannot be tested starts with ``name(row)``."""
    levels = tuple(_checked_level(a) for a in _as_tuple(levels, "levels"))
    if X.shape[-1] < MIN_SERIES_LENGTH:
        raise InputError(
            f"series too short for the test: T={X.shape[-1]} < {MIN_SERIES_LENGTH}"
        )
    bad, exponents = _scan_rows(X)
    if bad is not None:
        raise InputError(name(bad[0]) + bad[1])
    plan = _plan(X.shape[1], lags, m, kernel, correction, ridge_factor, demean)
    C, Q = _block_terms(_block_source(X, plan, exponents), plan, name)
    dof = 2 * len(plan.lags)
    mode = (correction or CorrectionSpec()).mode
    results = []
    for stat, c, parts in zip((plan.T * Q.sum(axis=-1)).tolist(), C.tolist(),
                              (plan.T * Q).tolist()):
        p = chisq_sf(stat, dof)
        results.append(TestResult(
            statistic=stat,
            dof=dof,
            p_value=p,
            reject_at={a: bool(p < a) for a in levels},
            lags=plan.lags,
            covariances=tuple(c),
            contributions=tuple(parts),
            T=plan.T,
            kernel=plan.kernel,  # bandwidth resolved against this T
            ridge_factor=ridge_factor,
            correction_mode=mode,
            demeaned=demean,
        ))
    return results


def stationarity_test(series, lags=None, m: int = _DEFAULT_M, kernel: KernelSpec | None = None,
                      correction: CorrectionSpec | None = None,
                      ridge_factor: float = 1e-3, demean: bool = True,
                      levels=DEFAULT_LEVELS) -> TestResult:
    """Portmanteau test of second order stationarity.

    Parameters
    ----------
    series : array_like
        Observations, at least ``MIN_SERIES_LENGTH``. The sample mean is removed before
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
        statistic, degrees of freedom 2m, p-value, per-level decisions, and
        per lag the covariance c(r) and its term of the statistic.

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


def segmented_test(series, depth: int, lags=None, m: int = _DEFAULT_M,
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
    result equals ``stationarity_test`` on that block bit for bit, and an
    error names its block (``depth 2 block 2 [512, 768): ...``). Memory is
    that of the series plus one transform of it per depth.
    """
    x = _checked_series(series)
    T = x.size
    depth = _checked_int(depth, "depth")
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    leaf = T >> depth  # the shortest block; checked before any bounds are built
    if leaf < MIN_SERIES_LENGTH:
        raise InputError(
            f"depth {depth} gives leaf blocks of length {leaf} < {MIN_SERIES_LENGTH}"
        )
    blocks = []
    for d in range(depth + 1):
        n, base = 2 ** d, T >> d  # n blocks; the remainder joins the last one
        bounds = [(i * base, (i + 1) * base) for i in range(n - 1)] + [((n - 1) * base, T)]
        equal = n if T % n == 0 else n - 1
        names = [f"depth {d} block {i} [{a}, {b}): " for i, (a, b) in enumerate(bounds)]
        results = _test_rows(x[: equal * base].reshape(equal, base), lags, m, kernel,
                             correction, ridge_factor, demean, levels, names.__getitem__)
        if equal < len(bounds):
            results += _test_rows(x[None, bounds[-1][0]:], lags, m, kernel, correction,
                                  ridge_factor, demean, levels, names[equal:].__getitem__)
        blocks += [SegmentBlock(depth=d, index=i, start=a, stop=b, result=res)
                   for i, ((a, b), res) in enumerate(zip(bounds, results))]
    return SegmentReport(T=T, depth=depth, blocks=tuple(blocks))
