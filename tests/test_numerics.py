import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dftstat import (
    ComputationError,
    InputError,
    RngStream,
    chisq_quantile,
    chisq_sf,
    dft_canonical,
)
from dftstat.numerics import (
    _chirp_rfft,
    _gauss_rows,
    _half_dft_rows,
    _Memo,
    _rfft_at,
    _takes_chirp,
    _unfold,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def trapezoid_2d_values(values, x, y):
    """Trapezoid rule over precomputed values on a rectangular grid, inner
    integral over y (axis 1), then over x; raises on a non-finite value."""
    vals = np.asarray(values)
    bad = ~np.isfinite(vals.real) | ~np.isfinite(vals.imag) if np.iscomplexobj(vals) \
        else ~np.isfinite(vals)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ComputationError(
            f"non-finite integrand value at grid point (x={x[i]!r}, y={y[j]!r})"
        )
    trapz = getattr(np, "trapezoid", None) or np.trapz
    return trapz(trapz(vals, y, axis=1), x, axis=0)


def dft_direct(series):
    """Direct O(T^2) evaluation of the canonical DFT, k = 1..T order."""
    x = np.asarray(series, dtype=float)
    T = x.size
    t = np.arange(1, T + 1)
    # t * k mod T in integers keeps the phases exact
    kernel = np.exp(2j * np.pi * (np.outer(t, t) % T) / T)
    return x @ kernel / math.sqrt(2 * np.pi * T)


def chisq_sf_simpson(x, dof, points=200001):
    """Survival function by composite Simpson quadrature of the density.

    Independent of the incomplete-gamma implementation under test. The
    upper limit is far enough into the tail that the truncation error is
    below 1e-13 for the (x, dof) pairs used here.
    """
    upper = x + 60.0 + 12.0 * dof
    t = np.linspace(x, upper, points)
    a = dof / 2.0
    logpdf = np.full_like(t, -np.inf)
    pos = t > 0
    logpdf[pos] = (a - 1.0) * np.log(t[pos]) - t[pos] / 2.0 \
        - a * math.log(2.0) - math.lgamma(a)
    pdf = np.exp(logpdf)
    h = (upper - x) / (points - 1)
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, pdf) * h / 3.0)


def quantile_by_bisection(p, dof):
    """Invert the Simpson-quadrature survival function by plain bisection."""
    target = 1.0 - p
    lo, hi = 0.0, float(dof)
    while chisq_sf_simpson(hi, dof, points=20001) > target:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if chisq_sf_simpson(mid, dof, points=20001) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# DFT
# ---------------------------------------------------------------------------


def test_dft_zero_series_is_zero():
    out = dft_canonical(np.zeros(16))
    assert np.all(out == 0)


def test_dft_matches_direct_sum_prime_and_composite():
    rng = np.random.default_rng(1)
    for T in (15, 16, 17, 243, 257, 453, 512):
        x = rng.standard_normal(T)
        fast = dft_canonical(x)
        slow = dft_direct(x)
        rel = np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
        assert rel < 1e-9


@pytest.mark.parametrize("T", [2, 3])
def test_dft_shortest_series_match_direct_sum(T):
    # no mirrored half (T = 2) and a one-entry one (T = 3)
    x = np.random.default_rng(T).standard_normal(T)
    slow = dft_direct(x)
    assert np.max(np.abs(dft_canonical(x) - slow)) < 1e-12 * np.max(np.abs(slow))


# 16381 (prime) takes the chirp-z route, the others numpy's rfft
@pytest.mark.parametrize("T", [32, 33, 257, 4096, 16381])
def test_dft_a_block_equals_its_rows(T):
    x = np.random.default_rng(T).standard_normal((7, T))
    block = _unfold(_half_dft_rows(x), T)
    for i in range(7):
        assert np.array_equal(block[i], _unfold(_half_dft_rows(x[i]), T))


def conj_half_dft(series):
    """conj(J(w_k)) at k = 0..T//2 from the direct sum, k = 1..T order."""
    J = dft_direct(series)
    return np.conj(np.concatenate([J[-1:], J[:J.size // 2]]))


# odd and even T, so both signs of w_{T-n} = -+w_n; three rows share a plan
@pytest.mark.parametrize("T", [32, 33, 257, 1009, 4093])
def test_chirp_rfft_matches_direct_sum(T):
    x = np.random.default_rng(T).standard_normal((3, T))
    half = _chirp_rfft(np.roll(x, 1, axis=-1)) / math.sqrt(2 * np.pi * T)
    for row, got in zip(x, half):
        want = conj_half_dft(row)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("T", [16381, 65521, 262139])
def test_routed_dft_matches_rfft_and_direct_sums(T):
    assert _takes_chirp(T)
    x = np.random.default_rng(T).standard_normal(T)
    half = _half_dft_rows(x[None, :])[0]
    want = np.fft.rfft(np.roll(x, 1)) / math.sqrt(2 * np.pi * T)
    assert np.max(np.abs(half - want)) <= 1e-13 * np.max(np.abs(want))
    k = np.random.default_rng(1).choice(T // 2 + 1, 16, replace=False)
    t = np.arange(1, T + 1)
    J = np.exp(2j * np.pi * (np.outer(k, t) % T) / T) @ x / math.sqrt(2 * np.pi * T)
    assert np.max(np.abs(half[k] - np.conj(J))) <= 1e-13 * np.max(np.abs(want))


def largest_prime_factor(n):
    p, d = 1, 2
    while n > 1:
        while n % d == 0:
            n, p = n // d, d
        d += 1
    return p


def test_chirp_rule_is_a_prime_factor_above_2_13():
    # composites with a large prime factor (3 * 16381, 8191 * 8209, 8209**2)
    # or only small ones (127 * 64, 521 * 4096)
    for T in [*range(2, 40), *range(8150, 8250), 8128, 49143, 2 ** 18,
              262139, 521 * 4096, 8191 * 8209, 8209 ** 2]:
        assert _takes_chirp(T) is (largest_prime_factor(T) > 2 ** 13), T


# primes on both sides of the threshold (8191, 8209), a composite with a
# large prime factor (3 * 16381) and one with only small ones (127 * 64)
@pytest.mark.parametrize("T", [33, 257, 8128, 8191, 8209, 2 ** 18, 49143, 262139])
def test_dft_route_depends_on_T_only(T, monkeypatch):
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    _half_dft_rows(np.ones((2, T)))
    assert bool(calls) is (T not in (8209, 49143, 262139))


def test_dft_cosine_concentrates_at_two_bins():
    T = 16
    t = np.arange(1, T + 1)
    x = np.cos(2 * np.pi * t * 3 / T)
    j = dft_canonical(x)
    mags = np.abs(j)
    # array position i holds k = i + 1
    hot = {3, 13}
    for k in range(1, T + 1):
        if k in hot:
            assert mags[k - 1] > 0.5
        else:
            assert mags[k - 1] < 1e-12


def test_dft_conjugate_symmetry_real_input():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    j = dft_canonical(x)
    for k in range(1, 8):
        assert j[(8 - k) - 1] == pytest.approx(np.conj(j[k - 1]), abs=1e-12)


def test_dft_parseval_random_series():
    rng = np.random.default_rng(3)
    for T in (16, 64, 257):
        for _ in range(100):
            x = rng.standard_normal(T)
            lhs = np.sum(np.abs(dft_canonical(x)) ** 2)
            rhs = np.sum(x ** 2) / (2 * np.pi)
            assert abs(lhs - rhs) <= 1e-9 * rhs


def test_dft_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    lhs = dft_canonical(2.5 * x - 1.25 * y)
    rhs = 2.5 * dft_canonical(x) - 1.25 * dft_canonical(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_dft_rejects_short_input():
    match = r"^dft_canonical needs a 1-d series of length >= 2, got shape \((0|1),\)$"
    with pytest.raises(InputError, match=match):
        dft_canonical([])
    with pytest.raises(InputError, match=match):
        dft_canonical([1.0])


@pytest.mark.parametrize("n", [20, 21])
@pytest.mark.parametrize("lags", [
    [1, 2, 3, 0, -19, 10],  # all at or below n/2 once reduced, so read as they are
    [11, 12, -1, -7, 19],  # all above n/2: every entry conjugated
    [1, 15, -3, 10, 10 ** 15 + 4, -(10 ** 15) - 4],  # mixed
])
def test_rfft_at_reads_the_full_dft(n, lags):
    x = np.random.default_rng(n).standard_normal((3, n))
    got = _rfft_at(np.fft.rfft(x, axis=-1), lags, n)
    want = np.fft.fft(x, axis=-1)[:, np.array(lags) % n]
    assert got.flags.c_contiguous and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# chi-square
# ---------------------------------------------------------------------------


def test_chisq_sf_at_zero_is_one():
    assert chisq_sf(0.0, 8) == 1.0


def test_chisq_sf_reference_value():
    # statistic 2.66 on 8 degrees of freedom sits deep in the lower tail
    assert chisq_sf(2.66, 8) == pytest.approx(0.95, abs=5e-3)


def test_chisq_sf_against_quadrature_oracle():
    pairs = [(0.5, 1), (2.0, 1), (1.0, 2), (5.991464547107979, 2), (9.21, 2),
             (0.7, 3), (4.0, 3), (2.0, 4), (11.07, 5), (1.63, 6),
             (2.66, 8), (13.36, 8), (3.94, 10), (18.31, 10), (30.0, 12),
             (8.0, 16), (31.41, 20), (10.85, 20), (50.0, 25), (24.0, 30)]
    assert len(pairs) == 20
    for x, dof in pairs:
        oracle = chisq_sf_simpson(x, dof)
        assert abs(chisq_sf(x, dof) - oracle) <= 1e-10, (x, dof)


def test_chisq_sf_large_dof_against_quadrature_oracle():
    # --lags 1..120 gives dof 240; the 1% and 50% points fall in the lower
    # series' range, the 99.9% point in the finite sum's
    for dof in (60, 61, 240, 241):
        for p in (0.01, 0.5, 0.999):
            x = chisq_quantile(p, dof)
            oracle = chisq_sf_simpson(x, dof)
            assert abs(chisq_sf(x, dof) - oracle) <= 1e-10, (p, dof)
    xs = np.linspace(0.0, 600.0, 3001)
    for dof in (60, 240):
        vals = [chisq_sf(x, dof) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:])), dof


def test_chisq_sf_dof2_closed_form():
    for x in (0.1, 1.0, 5.991464547107979, 20.0):
        assert chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)


def test_chisq_sf_strictly_decreasing():
    # strict decrease wherever the values are resolvable in double precision
    # (the function saturates at 1 near zero for large dof)
    xs = np.linspace(0.0, 60.0, 301)
    for dof in (2, 8, 20):
        vals = [chisq_sf(x, dof) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(a > b for a, b in zip(vals, vals[1:])
                   if 1e-12 < b and a < 1.0 - 1e-12)


def test_chisq_sf_invalid_inputs():
    with pytest.raises(InputError, match="^chisq_sf requires x >= 0, got -1.0$"):
        chisq_sf(-1.0, 2)
    with pytest.raises(InputError, match="^chisq_sf requires an integer dof >= 1, got 0$"):
        chisq_sf(1.0, 0)


def test_chisq_quantile_zero():
    assert chisq_quantile(0.0, 7) == 0.0


def test_chisq_quantile_round_trip():
    for p in (0.5, 0.9, 0.95, 0.99):
        for dof in (2, 8, 20):
            x = chisq_quantile(p, dof)
            assert chisq_sf(x, dof) == pytest.approx(1.0 - p, abs=1e-9)


def test_chisq_quantile_round_trip_tiny_p():
    # for dof 1 the quantile at p = 1e-9 is 1.6e-18, so the search must
    # resolve x relative to its size, not absolutely near zero
    for dof in (1, 2, 3):
        for p in (1e-12, 1e-9, 1e-6):
            x = chisq_quantile(p, dof)
            assert chisq_sf(x, dof) == pytest.approx(1.0 - p, abs=1e-9), (p, dof)


def test_chisq_quantile_far_upper_tail():
    # the search resolves the target sf value relative to its size, so the
    # quantile stays exact when 1 - p is far below 1e-13; dof 2 has
    # sf(x) = exp(-x / 2)
    for p in (1 - 1e-10, 1 - 1e-12, 1 - 1e-14):
        assert chisq_quantile(p, 2) == pytest.approx(-2 * math.log(1 - p), rel=1e-12)
    x = chisq_quantile(1 - 1e-14, 20)
    assert chisq_sf(x, 20) == pytest.approx(1 - (1 - 1e-14), rel=1e-9)


@pytest.mark.parametrize("dof", [1, 2, 3, 8, 20, 61, 240])
@pytest.mark.parametrize("p", [1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.95, 0.999, 1 - 1e-6, 1 - 1e-10])
def test_chisq_quantile_is_the_first_float_at_or_below_the_target(p, dof):
    # no float below the quantile reaches the target sf value: the quantile
    # is as exact as chisq_sf can tell, in both tails
    q = chisq_quantile(p, dof)
    assert chisq_sf(q, dof) <= 1 - p < chisq_sf(np.nextafter(q, 0.0), dof)


def test_chisq_quantile_against_bisected_oracle():
    oracle = quantile_by_bisection(0.95, 20)
    assert chisq_quantile(0.95, 20) == pytest.approx(oracle, abs=5e-4)
    assert chisq_quantile(0.95, 20) == pytest.approx(31.410, abs=2e-3)


def test_chisq_quantile_strictly_increasing():
    for dof in (2, 8, 20):
        ps = np.linspace(0.01, 0.99, 50)
        qs = [chisq_quantile(p, dof) for p in ps]
        assert all(a < b for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("dof", [1, 2, 3, 20, 61, 240])
def test_chisq_quantile_where_one_minus_p_rounds_to_one(dof):
    # for p <= 2**-54, 1 - p == 1.0: the quantile is the root of the lower
    # tail P(dof/2, x/2) = p, not the smallest float
    from scipy.special import gammaincinv

    for p in (5e-17, 1e-17, 1e-20, 1e-50, 1e-100):
        want = 2 * gammaincinv(dof / 2, p)  # down to 1.6e-200 (dof 1): no absolute tolerance
        assert abs(chisq_quantile(p, dof) - want) <= 1e-12 * want, p
    # no drop where the rule changes; p a relative 2**-20 either side of
    # 2**-54, since ulp-close p can be an ulp out of order (the docstring):
    # at dof 20 the quantile at the float above 2**-54 is an ulp below the
    # one at the float below it
    below, above = 2.0 ** -54 * (1 - 2.0 ** -20), 2.0 ** -54 * (1 + 2.0 ** -20)
    assert 1.0 - below == 1.0 > 1.0 - above
    assert chisq_quantile(below, dof) <= chisq_quantile(above, dof)


@pytest.mark.parametrize("dof", [2, 3, 20, 61, 240, 400])
def test_chisq_quantile_at_subnormal_p_matches_mpmath(dof):
    # the lower tail P(dof/2, x/2) = p is subnormal here, so Newton reads its log
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a = mpmath.mpf(dof) / 2
        for p in (5e-324, 1e-320, 1e-315, 1e-310, 1e-300, 1e-200):
            log_p = mpmath.log(p)
            # start where P(a, y) ~ y**a / Gamma(a + 1) meets p, then log P = log p in log x
            start = (log_p + mpmath.loggamma(a + 1)) / a + mpmath.log(2)
            root = mpmath.findroot(lambda lx: mpmath.log(mpmath.gammainc(
                a, 0, mpmath.exp(lx) / 2, regularized=True)) - log_p, start)
            want = float(mpmath.exp(root))
            assert abs(chisq_quantile(p, dof) - want) <= 1e-13 * want, p


def test_chisq_quantile_invalid_inputs():
    match = r"^chisq_quantile requires p in \[0, 1\), got "
    with pytest.raises(InputError, match=match + "-0.1$"):
        chisq_quantile(-0.1, 2)
    with pytest.raises(InputError, match=match + "1.0$"):
        chisq_quantile(1.0, 2)


# ---------------------------------------------------------------------------
# values kept between calls
# ---------------------------------------------------------------------------


def test_a_memo_of_one_keeps_only_the_newest_value():
    memo = _Memo(1, 64)
    for key in "abc":
        memo.put(key, key.upper(), [np.zeros(2)])
        assert memo.kept == {key: key.upper()}
    assert memo.get("a") is None and memo.get("c") == "C"


def test_a_memo_evicts_only_when_full_oldest_first():
    memo = _Memo(8, 64)
    for key in range(12):
        memo.put(key, -key, [])
        assert [*memo.kept] == list(range(max(0, key - 7), key + 1))
    assert [memo.get(key) for key in (3, 4, 11)] == [None, -4, -11]


def test_a_value_over_the_bound_is_not_kept_and_the_kept_values_stay():
    memo = _Memo(2, 64)
    memo.put("a", 1, [np.zeros(8)])  # 64 bytes: at the bound
    kept, big = memo.kept, [np.zeros(4), np.zeros(5)]  # 72 bytes together
    memo.put("b", 2, big)
    assert memo.kept is kept and memo.kept == {"a": 1}
    assert all(a.flags.writeable for a in big)


def test_an_unhashable_key_is_neither_read_nor_kept():
    memo = _Memo(2, 64)
    memo.put("a", 1, [])
    kept, arrays = memo.kept, [np.zeros(1)]
    for key in (["a"], ("a", [1])):
        memo.put(key, 2, arrays)
        assert memo.get(key) is None
    assert memo.kept is kept and memo.kept == {"a": 1} and arrays[0].flags.writeable


def test_a_key_already_kept_is_not_put_again():
    memo = _Memo(2, 64)
    memo.put("a", 1, [])
    memo.put("b", 2, [])
    kept, arrays = memo.kept, [np.zeros(1)]
    memo.put("a", 3, arrays)
    assert memo.kept is kept and [*memo.kept.items()] == [("a", 1), ("b", 2)]
    assert arrays[0].flags.writeable


def test_kept_arrays_are_read_only():
    memo = _Memo(1, 64)
    arrays = [np.zeros(3), np.ones(2, dtype=complex)]
    memo.put("k", tuple(arrays), arrays)
    assert not any(a.flags.writeable for a in memo.get("k"))
    with pytest.raises(ValueError):
        memo.get("k")[0][0] = 1.0


def test_a_memo_shared_by_threads_never_raises_nor_overfills():
    memo, sizes = _Memo(3, 64), []

    def work(thread):
        for i in range(3000):
            key = (thread, i % 5)
            if memo.get(key) is None:
                memo.put(key, i, [np.zeros(2)])
            sizes.append(sum(1 for _ in memo.kept))  # a Python-level read, which threads interrupt

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert max(sizes) == len(memo.kept) == 3


# ---------------------------------------------------------------------------
# Gaussian streams
# ---------------------------------------------------------------------------


def test_gauss_rows_deterministic():
    assert np.array_equal(_gauss_rows(123, 4, 6, 64), _gauss_rows(123, 4, 6, 64))


def test_gauss_rows_are_the_keyed_philox_streams():
    # the stream's definition, written out: Philox keyed by stream << 64 | seed
    for seed, stream, n in ((0, 0, 5), (123, 4, 1012), (2 ** 64 - 1, 2 ** 40, 300)):
        block = _gauss_rows(seed, stream, stream + 3, n)
        for i, row in enumerate(block):
            bits = np.random.Philox(key=((stream + i) << 64) | seed)
            want = np.random.Generator(bits).standard_normal(n)
            assert np.array_equal(row, want)
            assert np.array_equal(RngStream(seed, stream + i).generator().standard_normal(n), want)


def test_gauss_rows_moments():
    draws = _gauss_rows(99, 0, 1, 10 ** 6)[0]
    assert abs(draws.mean()) < 0.005
    assert abs(draws.var() - 1.0) < 0.01


def test_gauss_rows_independent_streams():
    a, b = _gauss_rows(7, 1, 3, 10 ** 6)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.005


def test_rng_stream_validation():
    with pytest.raises(InputError, match="^master_seed must be a 64-bit unsigned integer$"):
        RngStream(-1, 0)
    with pytest.raises(InputError, match="^stream_id must be nonnegative$"):
        RngStream(0, -2)


def test_stream_ids_end_below_2_64():
    # the stream id is the high word of Philox's 128-bit key
    with pytest.raises(InputError, match=r"^stream_id must be below 2\*\*64$"):
        RngStream(0, 2 ** 64)
    last = RngStream(3, 2 ** 64 - 1)
    assert np.array_equal(_gauss_rows(3, 2 ** 64 - 1, 2 ** 64, 5)[0],
                          last.generator().standard_normal(5))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_trapezoid_constant():
    u = np.linspace(0.0, 1.0, 64)
    w = np.linspace(0.0, 2 * np.pi, 64)
    val = trapezoid_2d_values(np.ones((64, 64)), u, w)
    assert val == pytest.approx(2 * np.pi, rel=1e-12)


def test_trapezoid_pure_cosine_cancels():
    u = np.linspace(0.0, 1.0, 128)
    w = np.linspace(0.0, 2 * np.pi, 64)
    val = trapezoid_2d_values(np.cos(2 * np.pi * u[:, None]) * np.ones_like(w), u, w)
    assert abs(val) < 1e-10


def test_trapezoid_hand_integrated_value():
    # integral of u*sin(w)^2 over [0,1]x[0,2pi] is (1/2)*pi
    u = np.linspace(0.0, 1.0, 128)
    w = np.linspace(0.0, 2 * np.pi, 256)
    val = trapezoid_2d_values(u[:, None] * np.sin(w[None, :]) ** 2, u, w)
    assert val == pytest.approx(np.pi / 2, rel=1e-10)


def test_trapezoid_grid_refinement_stability():
    def on_grid(n):
        u = np.linspace(0.0, 1.0, n)
        w = np.linspace(0.0, 2 * np.pi, n)
        vals = np.exp(-u[:, None]) * (1 + 0.3 * np.cos(w[None, :]))
        return trapezoid_2d_values(vals, u, w)

    assert on_grid(128) == pytest.approx(on_grid(64), rel=1e-4)


def test_trapezoid_reports_nonfinite_location():
    u = np.linspace(0.0, 1.0, 32)
    w = np.linspace(0.0, 2 * np.pi, 32)
    vals = np.where(u[:, None] > 0.5, np.inf, 1.0) * np.ones_like(w)
    with pytest.raises(ComputationError, match="^non-finite integrand value at grid point") as err:
        trapezoid_2d_values(vals, u, w)
    assert "grid point" in str(err.value)
