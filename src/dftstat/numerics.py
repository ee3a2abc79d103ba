"""Numerical primitives: canonical-frequency DFT, chi-square distribution
functions and seeded Gaussian streams.

The DFT convention used throughout the package is

    J(w_k) = (2*pi*T)**-0.5 * sum_{t=1..T} X_t * exp(i*t*w_k),

evaluated on the canonical frequencies w_k = 2*pi*k/T for k = 1..T. Arrays
returned by :func:`dft_canonical` are ordered k = 1..T, so index arithmetic
on frequencies is modulo T (w_{k+T} is the same frequency as w_k).

The chi-square functions are implemented from the regularized incomplete
gamma function Q(dof/2, x/2): a power series below x/2 = dof/2 + 1 and,
above it, the finite sum of Poisson-type terms (plus erfc for odd dof),
which is exact for the integer dof the API takes. They need nothing beyond
``math`` (no scipy) and match a quadrature oracle to 1e-10.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError, _checked_int, _within

_PHILOX = threading.local()  # per thread: (Philox, its Generator, a fresh state, its key)


class _Memo:
    """At most ``entries`` values kept between calls, whose arrays (``arrays(value)``,
    by default the value's items) total at most ``max_bytes``. ``put`` keeps a
    value only if its key hashes, is not kept yet and its arrays fit the budget
    alone: it makes them read-only, drops the oldest values until the new one
    fits and ``entries`` holds, and replaces ``kept`` whole, so threads need no
    lock. The total is counted from ``kept`` on each put. ``get`` is None on a
    miss or an unhashable key."""

    def __init__(self, entries: int, max_bytes: int, arrays=tuple):
        self.entries, self.max_bytes, self.arrays, self.kept = entries, max_bytes, arrays, {}

    def get(self, key):
        try:
            return self.kept.get(key)
        except TypeError:  # an unhashable key
            return None

    def put(self, key, value) -> None:
        kept, size = self.kept, lambda v: sum(a.nbytes for a in self.arrays(v))
        try:
            if key in kept or size(value) > self.max_bytes:
                return
        except TypeError:  # an unhashable key
            return
        for a in self.arrays(value):
            a.flags.writeable = False
        items, total = [*kept.items()], sum(map(size, (*kept.values(), value)))
        while len(items) >= self.entries or total > self.max_bytes:  # oldest first
            total -= size(items.pop(0)[1])
        self.kept = dict(items + [(key, value)])


def dft_canonical(series) -> np.ndarray:
    """DFT of a real series at the canonical frequencies, k = 1..T order.

    Parameters
    ----------
    series : array_like
        Real observations X_1..X_T, T >= 2.

    Returns
    -------
    ndarray of complex
        J(w_k) for k = 1..T including the (2*pi*T)**-0.5 normalization.
        Entry ``i`` holds k = i + 1; the last entry is the zero frequency
        (w_T = 2*pi).

    Notes
    -----
    Internally one real FFT gives k = 0..T//2 and conjugate symmetry the
    rest, so T need not be a power of two: numpy's mixed-radix rfft, or,
    when T has a prime factor above 2**13, a chirp-z convolution at a
    5-smooth length whose transforms run as short ones along the two axes
    of a matrix (see ``_half_dft_rows``). Equals the direct O(T^2)
    summation to 1e-9 relative.
    """
    x = _real_array(series)
    if x.ndim != 1 or x.size < 2:
        raise InputError(
            f"dft_canonical needs a 1-d series of length >= 2, got shape {x.shape}"
        )
    return _unfold(_half_dft_rows(x), x.size)


def _real_array(series) -> np.ndarray:
    """``series`` as a float array, else InputError: complex (asarray would keep
    the real part, with a warning) or not numbers."""
    if np.iscomplexobj(series):
        raise InputError("series must be real")
    try:
        return np.asarray(series, dtype=float)
    except (TypeError, ValueError) as exc:  # a str, a ragged list, ...
        raise InputError(f"series must be real numbers: {exc}") from None


def _half_dft_rows(x: np.ndarray, demean: bool = False,
                   work: np.ndarray | None = None, exponents=0) -> np.ndarray:
    """conj(J(w_k)) at k = 0..T//2 along the last axis, one real FFT per row,
    of x less its row means when ``demean``, and divided by
    ``2 ** exponents`` (per row, shape ``x.shape[:-1] + (1,)``, or one int
    for all) in the same pass as the normalization.

    Real input gives the rest of the circle as J(w_{T-k}) = conj(J(w_k)), so
    this half holds all of the DFT; :func:`_unfold` spreads it out. The
    rolled (and demeaned) rows are written to ``work``, a C-ordered float
    array of x's shape (a new one when None), which the caller may reuse
    once this returns; x itself is never written.

    The transform is numpy's rfft unless T has a prime factor above 2**13
    (``_takes_chirp``, a rule of T alone). numpy transforms such a length by
    Bluestein's algorithm with a plan and buffers of about 2T points built
    anew on every call; those T take :func:`_chirp_rfft`, the same algorithm
    at about 1.5T points, as four-step transforms whose plans are a few KB,
    with the phases and the chirp's transform built once per length (kept
    for the last 4 lengths within 16 MiB and shared by every caller), which
    agrees with numpy's rfft to 1.5e-15 of the largest entry. Other T give
    numpy's bits.
    """
    T = x.shape[-1]
    rolled = np.empty(x.shape) if work is None else work
    # Rolling by one puts X_T at s = 0, where e^{i T w_k} = 1, so
    # sum_{t=1..T} X_t e^{i t w_k} is conj(rfft) of the rolled row.
    if demean:
        mean = x.mean(axis=-1, keepdims=True)
        np.subtract(x[..., -1:], mean, out=rolled[..., :1])
        np.subtract(x[..., :-1], mean, out=rolled[..., 1:])
    else:
        rolled[..., :1] = x[..., -1:]
        rolled[..., 1:] = x[..., :-1]
    if _takes_chirp(T):
        half = _chirp_rfft(rolled)
    else:
        half = np.fft.rfft(rolled, axis=-1)
    # numpy divides a complex number by a real d as its two parts times 1/d,
    # so this is half /= sqrt(2*pi*T) * 2**exponents bit for bit, in one
    # pass of real products, several times faster than complex division
    parts = half.view(float)
    np.multiply(parts, np.ldexp(1.0 / math.sqrt(math.tau * T), -exponents), out=parts)
    return half


# Lengths with a prime factor above this take _chirp_rfft: there it beats
# numpy's rfft on one row (README.md, "Performance notes"), below it numpy
# is as fast or faster
_CHIRP_MIN_PRIME = 2 ** 13


def _takes_chirp(T: int) -> bool:
    """Whether the real DFT of length T runs as :func:`_chirp_rfft`: when T
    has a prime factor above ``_CHIRP_MIN_PRIME``."""
    d = 2
    while d * d <= T and d <= _CHIRP_MIN_PRIME:
        while T % d == 0:
            T //= d
        d += 1
    # T is now 1, a prime, or has no prime factor up to the bound
    return T > _CHIRP_MIN_PRIME


_CHIRP = _Memo(4, 2 ** 24)  # T: _chirp_spectrum's arrays; 16 MiB holds any T up to 497 000


def _chirp_rfft(x: np.ndarray) -> np.ndarray:
    """``np.fft.rfft(x, axis=-1)`` of a real x, by a chirp-z convolution.

    With w_n = exp(-i*pi*n**2/T) and nk = (n**2 + k**2 - (k - n)**2) / 2,
    rfft(x)_k = w_k * sum_n (x_n w_n) conj(w_{k-n}) (Bluestein 1970): one
    linear convolution of x*w with the chirp conj(w_j), j = 1-T..T//2,
    computed circularly at N = _fast_length(T + T//2) points, where the
    wrap-around misses k = 0..T//2. w_{T-n} = w_n for even T and -w_n for
    odd T, so only w_n at n <= T//2 is used. Both length-N transforms are
    forward :func:`_four_step` transforms of the work array seen as (rows, P,
    Q), whose numpy plans are a few KB (a length-N call builds about 12 MB
    anew at N = 393216): the first into the order the chirp's transform is
    kept in, so the product needs no permutation, the second back, where the
    convolution comes out reversed. w, the chirp's transform and the
    twiddles, shared by the rows, are kept in ``_CHIRP`` (8.98 MB at T =
    262139), so a call at a kept length evaluates no phase; a call that fails
    keeps nothing. The work is one complex array of N per row, every
    transform in place. Agrees with numpy's rfft to within 1.5e-15 of its
    largest entry (random normal rows, lengths from 32 to 1000003).

    The rule in :func:`_takes_chirp` takes T alone. Its threshold is where
    one row, the single test of a long series, starts to gain (README.md,
    "Performance notes").
    """
    shape, T = x.shape, x.shape[-1]
    x = x.reshape(-1, T)
    rows = x.shape[0]
    K = T // 2 + 1
    L = T - K  # n = K..T-1 is T - n' with n' = L..1
    spectrum = _CHIRP.get(T) or _chirp_spectrum(T)
    w, chirp, U, V = spectrum
    a = np.empty((rows, chirp.size), dtype=complex)
    np.multiply(x[:, :K], w, out=a[:, :K])
    np.multiply(x[:, K:], w[L:0:-1], out=a[:, K:T])
    if T % 2:  # w_{T-n} = -w_n
        np.negative(a[:, K:T], out=a[:, K:T])
    a[:, T:] = 0.0
    cube = a.reshape((rows,) + chirp.shape)
    _four_step(cube, U, V, first=-2)
    cube *= chirp
    _four_step(cube, U, V, first=-1)  # the convolution at k is at N - 1 - k
    out = np.multiply(a[:, :-K - 1:-1], w)
    _CHIRP.put(T, spectrum)
    return out.reshape(shape[:-1] + (K,))


def _chirp_spectrum(T: int) -> tuple:
    """(w_n at n = 0..T//2, the transform of the chirp conj(w_j), j =
    1-T..T//2, at j + 1 mod N and in :func:`_four_step`'s forward order, with
    the convolution's 1/N on it, U, V). w_n is taken from n**2 mod 2T. The
    shift by one leaves the convolution at k at N - 1 - k after the forward
    transform back, the inverse at -k."""
    K, L, N = T // 2 + 1, (T - 1) // 2, _fast_length(T + T // 2)
    n = np.arange(K, dtype=np.int64)
    phase = np.remainder(n * n, 2 * T) * (-math.pi / T)
    w = np.empty(K, dtype=complex)
    np.cos(phase, out=w.real)
    np.sin(phase, out=w.imag)
    U, V = _twiddles(N)
    chirp = np.empty(N, dtype=complex)
    # conj(w_j) at j mod N: j = 0..K-1, then j = 1-T..-K, then j = 1-K..-1
    np.conjugate(w, out=chirp[:K])
    chirp[K:N - T + 1] = 0.0
    np.multiply(chirp[1:L + 1], -1.0 if T % 2 else 1.0, out=chirp[N - T + 1:N - K + 1])
    chirp[N - K + 1:] = chirp[K - 1:0:-1]
    chirp = np.roll(chirp, 1).reshape(1, U.shape[0] * V.shape[0], -1)
    _four_step(chirp, U, V, first=-2)
    chirp *= 1.0 / N
    return w, chirp[0], U, V


def _twiddles(N: int) -> tuple:
    """The twiddles omega**(k*q) = U[k // S, q] * V[k % S, q] of a length-N
    :func:`_four_step`, k < P and q < Q = N / P, omega = exp(-2*pi*i/N), for
    P the largest divisor of N at most sqrt(N) and S that of P: about
    2 * N**0.75 values in all."""
    P = max(d for d in range(1, math.isqrt(N) + 1) if N % d == 0)
    S = max(d for d in range(1, math.isqrt(P) + 1) if P % d == 0)
    U, V = (np.outer(k, np.arange(N // P)) % N for k in (np.arange(0, P, S), np.arange(S)))
    for m in (U, V):  # exponents in (-N/2, N/2], the phases in [-pi, pi]
        m -= N * (2 * m > N)
    return tuple(np.exp(m * (-math.tau / N * 1j)) for m in (U, V))


def _four_step(a: np.ndarray, U: np.ndarray, V: np.ndarray, first: int) -> None:
    """The DFT sum_n x_n omega**(n*k), in place, of each (P, Q) ``a[i]`` by
    FFTs along axis ``first`` and then the other, with the twiddles between
    (Bailey 1990): ``first=-2`` takes x_n at [n // Q, n % Q] to X_k at
    [k % P, k // P], and ``first=-1`` the latter order to the former."""
    np.fft.fft(a, axis=first, out=a)
    t = a.reshape(a.shape[0], U.shape[0], V.shape[0], -1)
    t *= U[:, None]
    t *= V
    np.fft.fft(a, axis=-3 - first, out=a)


def _fast_length(m: int) -> int:
    """Smallest n = 2**a * 3**b * 5**c with n >= m (m >= 1).

    numpy's FFT factors a length into small radices, so these lengths
    transform fast; for m >= 8 the result is below 1.16 * m.
    """
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _unfold(half: np.ndarray, T: int) -> np.ndarray:
    """The full k = 1..T array V_k of a Hermitian V (V_{T-k} = conj(V_k)),
    from ``half`` = conj(V_k) at k = 0..T//2 along the last axis."""
    h = T // 2
    out = np.empty(half.shape[:-1] + (T,), dtype=complex)
    np.conjugate(half[..., 1:h + 1], out=out[..., :h])  # k = 1..h
    out[..., h:T - 1] = half[..., T - h - 1:0:-1]  # k = h+1..T-1
    out[..., T - 1] = half[..., 0]  # k = T, the zero frequency
    return out


def _rfft_at(half: np.ndarray, k, n: int) -> np.ndarray:
    """Entries k (any integers) of the length-n DFT of real data, read from
    its rfft ``half`` along the last axis: index k mod n, conjugated above
    n/2. When no k mod n lies above n/2 the entries are read as they are.

    The result is a new C-ordered array, so a reduction over it runs in the
    same order whatever the other axes' sizes.
    """
    k = np.asarray(k) % n
    above = k > n // 2
    if not above.any():
        return half.take(k, axis=-1)
    out = half.take(np.where(above, n - k, k), axis=-1)
    out[..., above] = np.conj(out[..., above])
    return out


# ---------------------------------------------------------------------------
# chi-square distribution via the regularized incomplete gamma function
# ---------------------------------------------------------------------------

_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 10_000


def _lower_reg_gamma(a: float, x: float, log: bool = False) -> float:
    """P(a, x), or log P if ``log``, by series expansion, x > 0; accurate for x < a + 1."""
    term = 1.0 / a
    total = term
    n = 1
    while n < _GAMMA_MAX_ITER:
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
        n += 1
    else:
        raise ComputationError(f"incomplete gamma series failed to converge at a={a}, x={x}")
    log_scale = -x + a * math.log(x) - math.lgamma(a)
    return math.log(total) + log_scale if log else total * math.exp(log_scale)


def _upper_reg_gamma(a: float, x: float) -> float:
    """Q(a, x) for integer or half-integer a by its finite sum; used for x >= a + 1.

    Q(a, x) = [erfc(sqrt(x)) if a is a half-integer] +
    sum_{k < a - a0} x**(a0 + k) * exp(-x) / Gamma(a0 + k + 1), a0 = a mod 1,
    with one exp and one lgamma per call whatever the dof.
    """
    a0 = a % 1.0
    total = math.erfc(math.sqrt(x)) if a0 else 0.0
    k = int(a - a0) - 1
    # Since x > a0 + k, the terms grow with k: start from the largest in log
    # space and recur down, term_{k-1} = term_k * (a0 + k) / x, so no term
    # that matters underflows.
    term = math.exp((a0 + k) * math.log(x) - x - math.lgamma(a0 + k + 1.0))
    while k >= 0:
        total += term
        term *= (a0 + k) / x
        k -= 1
    return total


def chisq_sf(x: float, dof: int) -> float:
    """Survival function P(chi^2_dof > x).

    Computed as Q(dof/2, x/2): 1 minus the lower power series for
    x/2 < dof/2 + 1, else the finite sum that is exact for integer dof, with
    no scipy. Absolute error below 1e-10 over the whole domain. Raises on
    negative ``x`` or nonpositive ``dof``.
    """
    if not _within(x, 0.0, math.inf, closed=True):
        raise InputError(f"chisq_sf requires x >= 0, got {x}")
    if int(dof) != dof or dof < 1:
        raise InputError(f"chisq_sf requires an integer dof >= 1, got {dof}")
    a = 0.5 * dof
    xh = 0.5 * x
    if xh == 0.0:
        return 1.0
    if xh < a + 1.0:
        return 1.0 - _lower_reg_gamma(a, xh)
    return _upper_reg_gamma(a, xh)


def chisq_quantile(p: float, dof: int) -> float:
    """Inverse of the chi-square CDF: x with chisq_sf(x, dof) = 1 - p.

    Accepts p in [0, 1). Returns an x with chisq_sf(x, dof) <= 1 - p <
    chisq_sf(the float below x), so the equation holds as closely as
    ``chisq_sf`` resolves it, far in either tail. Nondecreasing in p, but
    for p closer than about 1e-13: ``chisq_sf`` is not monotone at the ulp
    scale, so more than one float can meet that condition. For p <= 2**-54,
    where 1 - p rounds to 1, x is instead Newton's root of P(dof/2, x/2) = p.
    """
    if not _within(p, 0.0, 1.0, closed=True):
        raise InputError(f"chisq_quantile requires p in [0, 1), got {p}")
    if int(dof) != dof or dof < 1:
        raise InputError(f"chisq_quantile requires an integer dof >= 1, got {dof}")
    return _chisq_quantile(float(p), int(dof))


@functools.lru_cache(maxsize=256)
def _chisq_quantile(p: float, dof: int) -> float:
    """``chisq_quantile`` of checked arguments, memoized: a Monte Carlo study
    asks for one or two quantiles, and a run of studies for the same ones.

    Newton steps from the Wilson-Hilferty start on the log of the smaller
    tail against log x, until a step is below 1e-8 of x (the lower tail is
    P(a, x/2), precise where 1 - chisq_sf rounds; log P if p <= 2**-54, where
    P can be subnormal). Then a walk, one float and
    then doubling strides, as chisq_sf can round to one value over many
    floats near 1, brackets the condition, and bisection meets it.
    """
    if p == 0.0:
        return 0.0
    from statistics import NormalDist  # deferred: its import costs 4 ms
    target, a, lower = 1.0 - p, 0.5 * dof, p < 0.5
    tiny = target == 1.0  # p <= 2**-54
    z = NormalDist().inv_cdf(p)
    x = max(dof * (1.0 - 2.0 / (9 * dof) + z * math.sqrt(2.0 / (9 * dof))) ** 3,
            # or, where that is poor, below the quantile: P(a, x/2) < (x/2)**a / Gamma(a + 1)
            2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a))
    try:
        for _ in range(50):  # a cap: from the start it takes about 3 steps
            tail = _lower_reg_gamma(a, 0.5 * x, tiny) if lower else chisq_sf(x, dof)
            log_tail = tail if tiny else math.log(tail)
            # the tail's slope against log x: x times the density, over the tail
            slope = math.exp(a * math.log(0.5 * x) - 0.5 * x - math.lgamma(a) - log_tail)
            step = x * math.expm1((math.log(p if lower else target) - log_tail)
                                  / (slope if lower else -slope))
            x += step
            if abs(step) <= 1e-8 * x:  # what is left is about (step / x)**2 of x: an ulp or so
                break
    except ValueError:  # x underflowed at a tiny p: the walk starts at x
        pass
    if tiny:  # only 0 has chisq_sf <= 1 - p, so no walk
        return x

    def at_or_below(y):  # 0 never is: p > 0
        return y > 0.0 and chisq_sf(y, dof) <= target

    lo, hi, stride = x, x, math.ulp(x)
    if at_or_below(x):
        while at_or_below(lo := max(hi - stride, 0.0)):
            hi, stride = lo, 2.0 * stride
    else:
        while not at_or_below(hi := lo + stride):
            lo, stride = hi, 2.0 * stride
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # until lo and hi are adjacent floats
        lo, hi = (lo, mid) if at_or_below(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return hi


# ---------------------------------------------------------------------------
# seeded Gaussian streams (counter-based, parallel-safe)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """One reproducible random stream out of a keyed family.

    Philox (counter-based) keyed by the pair (master_seed, stream_id), so
    identical pairs give bit-identical output and distinct stream ids give
    statistically independent streams. A stream instance should be consumed
    by one thread at a time.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        if not (0 <= self.master_seed < 2 ** 64):
            raise InputError("master_seed must be a 64-bit unsigned integer")
        if self.stream_id < 0:
            raise InputError("stream_id must be nonnegative")
        if self.stream_id >= 2 ** 64:  # the high word of Philox's 128-bit key
            raise InputError("stream_id must be below 2**64")

    def generator(self) -> np.random.Generator:
        key = (int(self.stream_id) << 64) | int(self.master_seed)
        return np.random.Generator(np.random.Philox(key=key))


def _gauss_rows(master_seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Row i holds the first n draws of ``RngStream(master_seed, start + i)``.

    One Philox per thread, built on the thread's first call (seeding it costs
    about seven row resets) and reset per row to the stream's start, from int
    lists (numpy reads them faster than arrays): counter 0, no buffered draw,
    key (master_seed, stream). Studies running in concurrent threads share none.
    """
    RngStream(master_seed, start)  # the seed and stream checks
    rng = getattr(_PHILOX, "rng", None)
    if rng is None:
        bits, key = np.random.Philox(0), [0, 0]
        state = {**bits.state, "state": {"counter": [0] * 4, "key": key}, "buffer": [0] * 4}
        rng = _PHILOX.rng = (bits, np.random.Generator(bits), state, key)
    bits, gen, state, key = rng
    key[0] = master_seed
    out = np.empty((stop - start, n))
    for row, stream in enumerate(range(start, stop)):
        key[1] = stream
        bits.state = state
        gen.standard_normal(out=out[row])
    return out
