"""Generators for benchmark processes: stationary ARMA, change-point AR,
AR with smoothly time-varying innovation scale, and variance-modulated
noise.

All recursive models are driven by one Gaussian stream per replication and
drop ``burn_in`` initial steps, so a realization is a pure function of
(spec, config). Time-varying quantities live in rescaled time u = t/T. The
AR recursions run as banded triangular solves (``_filter_rows``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InputError, _checked_int
from .numerics import RngStream, _gauss_rows
from .stattest import MIN_SERIES_LENGTH

_SIGMA_PROBE = np.linspace(0.0, 1.0, 1025)  # where ModulatedNoiseSpec checks sigma


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------


def _ar_root_check(ar, context: str):
    """Stationarity check: roots of 1 - a1 z - ... - ap z^p outside the unit
    circle; non-finite coefficients are rejected first."""
    a = tuple(map(float, ar))
    if not all(map(math.isfinite, a)):
        raise InputError(f"{context}: AR coefficients must be finite, got {a}")
    min_mod = _min_root_modulus(a)
    if min_mod <= 1.0 + 1e-10:
        raise InputError(
            f"{context}: AR polynomial has a root of modulus {min_mod:.6g} "
            "on or inside the unit circle"
        )


@functools.lru_cache(maxsize=256)
def _min_root_modulus(ar: tuple) -> float:
    """Smallest root modulus of 1 - a1 z - ... - ap z^p for finite a, inf when
    it has no roots. Memoized by the coefficients: a Monte Carlo study checks
    its model once, and a run of studies the same few models.

    The roots are the reciprocals of the nonzero roots of the monic
    z^p - a1 z^(p-1) - ... - ap, whose companion matrix holds the a's
    themselves; dividing by a tiny ap instead would overflow.
    """
    roots = np.roots(np.concatenate([[1.0], -np.array(ar)]))  # descending powers
    largest = float(np.max(np.abs(roots), initial=0.0))
    return 1.0 / largest if largest else math.inf


@dataclass(frozen=True)
class ArmaSpec:
    """Stationary ARMA: X_t = sum_i ar_i X_{t-i} + e_t + sum_j ma_j e_{t-j}."""

    ar: tuple = ()
    ma: tuple = ()

    def validate(self):
        _ar_root_check(self.ar, "ArmaSpec")


@dataclass(frozen=True)
class ChangepointArSpec:
    """Piecewise AR with coefficient switches at given time fractions.

    ``segments`` holds (fraction, ar_coeffs) pairs with strictly increasing
    fractions ending at 1.0; segment j generates observations for
    floor(f_{j-1} T) < t <= floor(f_j T), seeded by the previous segment's
    last values (no re-initialization at the switch).
    """

    segments: tuple

    def validate(self):
        if len(self.segments) < 1:
            raise InputError("at least one segment is required")
        prev = 0.0
        for frac, ar in self.segments:
            if not (prev < frac <= 1.0):
                raise InputError(
                    f"segment fractions must increase strictly within (0, 1], got {frac}"
                )
            prev = frac
            _ar_root_check(ar, f"segment ending at {frac}")
        if self.segments[-1][0] != 1.0:
            raise InputError("the last segment fraction must be 1.0")


@dataclass(frozen=True)
class TvInnovationArSpec:
    """AR with time-varying innovation scale: X_t = sum ar_i X_{t-i} + s(t/T) e_t.

    The scale function may change sign (only s(u)^2 enters the second order
    structure); the local spectral density uses s(u)^2. It must be a pure
    function: Monte Carlo studies key their kept replications by sigma's identity.
    """

    ar: tuple
    sigma: Callable[[np.ndarray], np.ndarray]

    def validate(self):
        _ar_root_check(self.ar, "TvInnovationArSpec")
        if not callable(self.sigma):
            raise InputError("sigma must be callable on [0, 1]")


@dataclass(frozen=True)
class ModulatedNoiseSpec:
    """Independent noise with time-varying scale: X_t = s(t/T) e_t, s > 0, for
    a pure function s: studies key their kept replications by its identity."""

    sigma: Callable[[np.ndarray], np.ndarray]

    def validate(self):
        """Check sigma on ``_SIGMA_PROBE``, 1025 points of [0, 1], passed as
        a copy, so a sigma that writes into its argument leaves the probe as it was."""
        if not callable(self.sigma):
            raise InputError("sigma must be callable on [0, 1]")
        probe = np.asarray(self.sigma(_SIGMA_PROBE.copy()), dtype=float)
        if np.any(probe <= 0.0):
            raise InputError("modulated-noise sigma must be positive on [0, 1]")


ModelSpec = Union[ArmaSpec, ChangepointArSpec, TvInnovationArSpec, ModulatedNoiseSpec]


@dataclass(frozen=True)
class GeneratorConfig:
    """Length, burn-in and random stream for one realization."""

    T: int
    burn_in: int = 500
    rng: RngStream = RngStream(0, 0)

    def __post_init__(self):
        for name in ("T", "burn_in"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        if self.T < MIN_SERIES_LENGTH:
            raise InputError(f"T must be >= {MIN_SERIES_LENGTH}, got {self.T}")
        if self.burn_in < 0:
            raise InputError(f"burn_in must be >= 0, got {self.burn_in}")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def innovation_count(spec: ModelSpec, config: GeneratorConfig) -> int:
    """Number of innovation draws one realization consumes."""
    if isinstance(spec, ModulatedNoiseSpec):
        return config.T  # no recursion, burn-in not needed
    return config.T + config.burn_in


def generate(spec: ModelSpec, config: GeneratorConfig) -> np.ndarray:
    """Draw one length-T realization of the given model.

    Parameters
    ----------
    spec : ModelSpec
        Process description; AR polynomials are checked for stationarity.
    config : GeneratorConfig
        Length, burn-in and stream identity. A stream's draws do not depend
        on the model, so model variants driven by one stream share their noise.
    """
    spec.validate()
    eps = _gauss_rows(config.rng.master_seed, config.rng.stream_id, config.rng.stream_id + 1,
                      innovation_count(spec, config))
    return _filter_rows(spec, eps, config.T, config.burn_in)[0]


def _filter_rows(spec: ModelSpec, eps: np.ndarray, T: int, burn: int) -> np.ndarray:
    """Realizations of ``spec`` driven by the innovation rows of ``eps``.

    Row i of the result depends only on row i of ``eps``; ``generate`` is the
    one-row case. The recursive models overwrite ``eps`` with their outputs,
    burn-in included, and return a view of it. The spec is not validated.

    y_t = v_t + sum_i a_i(t) y_{t-i} is a unit lower-triangular banded system
    in y, which LAPACK's ``dtbtrs`` solves for all rows at once; v is ``eps``,
    scaled by sigma or passed through the MA terms, in place and a piece of
    at most ``_MA_PIECE`` elements at a time. The solve's columns go in pieces
    of at most ``_PIECE``, one solve each; the band holds each row's own
    coefficients, zero past its stretch's order, so a changepoint switch needs
    no cut. A piece from column t0 starts with k = min(p, t0) pinned rows,
    the outputs before t0, whose band entries are zero, so state carries over
    exactly; the values before the first column are zeros and drop out.
    """
    if isinstance(spec, ModulatedNoiseSpec):
        u = np.arange(1, T + 1) / T
        return np.asarray(spec.sigma(u), dtype=float) * eps

    if isinstance(spec, ChangepointArSpec):  # the last segment ends at T
        ends = [burn + math.floor(frac * T) for frac, _ in spec.segments[:-1]] + [burn + T]
        stretches = list(zip([0] + ends[:-1], ends, (ar for _, ar in spec.segments)))
    elif isinstance(spec, ArmaSpec):
        terms = [(j, c) for j, c in enumerate(spec.ma, start=1) if c]  # model2 has a zero term
        width = max(1, _MA_PIECE // eps.shape[0])
        for b in range(eps.shape[1], 0, -width) if terms else ():
            a = max(b - width, 0)  # right to left, so a piece reads only unwritten columns
            v = eps[:, a:b].copy()
            for j, c in terms:  # each element adds its terms in order of j
                v[:, max(j - a, 0):] += c * eps[:, max(a - j, 0):max(b - j, 0)]
            eps[:, a:b] = v
        stretches = [(0, burn + T, spec.ar)]
    elif isinstance(spec, TvInnovationArSpec):
        u = np.clip(np.arange(1 - burn, T + 1) / T, 0.0, 1.0)  # burn-in at the initial scale
        eps *= np.asarray(spec.sigma(u), dtype=float)
        stretches = [(0, burn + T, spec.ar)]
    else:
        raise InputError(f"unsupported model spec {type(spec).__name__}")

    from scipy.linalg.lapack import dtbtrs  # deferred: only the simulators need it

    p, n, built = max(len(ar) for _, _, ar in stretches), burn + T, None
    for t0 in range(0, n, _PIECE):
        k, t1 = min(p, t0), min(t0 + _PIECE, n)
        w = eps[:, t0 - k:t1]  # row j of the system is column t0 - k + j
        here = [(max(a, t0) - t0 + k, min(b, t1) - t0 + k, ar)
                for a, b, ar in stretches if a < t1 and b > t0]
        if (w.shape[1], here) != built:  # pieces inside one stretch share a band
            # band[j, i] = A[j + i, j] = -a_i(j + i); the unit diagonal, i = 0, is not read
            band, built = np.zeros((w.shape[1], p + 1)), (w.shape[1], here)
            for a, b, ar in here:  # rows a..b-1; a_i is zero past the stretch's order
                for i, c in enumerate(ar, start=1):
                    band[max(a - i, 0):max(b - i, 0), i] = -c
        x, _ = dtbtrs(band.T, w.T, uplo="L", diag="U", overwrite_b=True)
        if not np.may_share_memory(x, w):  # a multi-row piece is solved in a copy
            w[...] = x.T
    return eps[:, burn:]


_PIECE = 8192  # columns per banded solve: the band takes 8 (p + 1) bytes a column
_MA_PIECE = 2 ** 14  # elements of v per piece of the MA pass, 128 KiB, so it stays in L2


# ---------------------------------------------------------------------------
# local (time-varying) spectral densities
# ---------------------------------------------------------------------------


def _arma_spectrum_fn(ar, ma):
    ar = np.asarray(ar, dtype=float)
    ma = np.asarray(ma, dtype=float)

    def spec(omega):
        w = np.asarray(omega, dtype=float)
        num = np.ones_like(w, dtype=complex)
        for j, c in enumerate(ma, start=1):
            num = num + c * np.exp(1j * j * w)
        den = np.ones_like(w, dtype=complex)
        for j, c in enumerate(ar, start=1):
            den = den - c * np.exp(1j * j * w)
        return np.abs(num) ** 2 / (np.abs(den) ** 2 * math.tau)

    return spec


def local_spectrum(spec: ModelSpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Time-varying spectral density f(u, w) of the model.

    The returned callable broadcasts over numpy arrays in both arguments.
    Stationary models give a u-constant surface; the modulated-noise family
    gives s(u)^2 / (2*pi). Where the surface is constant along an argument,
    the result may be a read-only view that broadcasts the varying values.
    """
    if isinstance(spec, ArmaSpec):
        s = _arma_spectrum_fn(spec.ar, spec.ma)

        def f(u, omega):
            u, vals = np.asarray(u, dtype=float), s(omega)
            return np.broadcast_to(vals, np.broadcast_shapes(u.shape, vals.shape))

        return f

    if isinstance(spec, ChangepointArSpec):
        fracs = np.array([frac for frac, _ in spec.segments])
        fns = [_arma_spectrum_fn(ar, ()) for _, ar in spec.segments]

        def f(u, omega):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            w = np.asarray(omega, dtype=float)
            seg = np.clip(np.searchsorted(fracs, u, side="left"), 0, len(fns) - 1)
            # each segment's spectrum once on w, picked per u by broadcasting
            return np.select([seg == j for j in range(len(fns))], [fn(w) for fn in fns])

        return f

    if isinstance(spec, TvInnovationArSpec):
        s = _arma_spectrum_fn(spec.ar, ())

        def f(u, omega):
            u = np.asarray(u, dtype=float)
            return np.asarray(spec.sigma(u), dtype=float) ** 2 * s(omega)

        return f

    if isinstance(spec, ModulatedNoiseSpec):
        def f(u, omega):
            u = np.asarray(u, dtype=float)
            scale = np.asarray(spec.sigma(u), dtype=float) ** 2 / math.tau
            return np.broadcast_to(scale, np.broadcast_shapes(scale.shape, np.shape(omega)))

        return f

    raise NotImplementedError(f"no local spectrum for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# benchmark presets
# ---------------------------------------------------------------------------

# Piecewise scale over twentieths of [0, 1], taking the levels 1, 2 and 3.
_SIGMA6_LEVELS = np.array(
    [3, 3, 3, 3, 3, 1, 3, 3, 2, 2, 2, 2, 3, 2, 1, 3, 1, 3, 1, 2], dtype=float
)


def _sigma_piecewise6(u):
    """Three-level piecewise scale function on [0, 1] used by model6."""
    u = np.asarray(u, dtype=float)
    idx = np.minimum(np.maximum(np.floor(u * 20.0).astype(int), 0), 19)
    out = _SIGMA6_LEVELS[idx]
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=256)
def _sigma_model4(T: int):
    """Smooth innovation scale 1/2 + sin(2*pi*t/512) + 0.3*cos(2*pi*t/512),
    one harmonic sigma per T, so that model4's presets at one T compare equal.

    The 512 in the denominator is fixed regardless of T, so at T = 256 only
    half a cycle is seen (which is why the scale barely varies there).
    """
    return sigma_from_dict({"kind": "harmonic", "const": 0.5, "sin": 1.0, "cos": 0.3,
                            "cycles": T / 512.0})


def _field(d, key: str, convert, default=...):
    """``convert(d[key])``, or ``default`` for an absent key; a missing or
    malformed field raises InputError naming it."""
    if not isinstance(d, dict):
        raise InputError(f"expected an object with field {key!r}, got {type(d).__name__}")
    if key not in d and default is ...:
        raise InputError(f"missing field {key!r}")
    try:
        return convert(d[key]) if key in d else default
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad field {key!r}: {exc}") from None


def _numbers(v) -> tuple:
    """A list of finite numbers as a tuple of floats."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or not np.all(np.isfinite(a)):
        raise ValueError(f"expected a list of finite numbers, got {v!r}")
    return tuple(a.tolist())


def _number(v) -> float:
    return _numbers([v])[0]


def sigma_from_dict(d: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Build a scale function on [0, 1] from its declarative form.

    Supported kinds:
      constant   {"kind": "constant", "value": c}
      piecewise  {"kind": "piecewise", "breaks": [u_1..], "values": [v_0..]}
                 right-open bins; len(values) == len(breaks) + 1
      harmonic   {"kind": "harmonic", "const": c, "sin": s, "cos": q,
                  "cycles": m}  ->  c + s*sin(2*pi*m*u) + q*cos(2*pi*m*u)
    """
    kind = _field(d, "kind", str, None)
    if kind == "constant":
        value = _field(d, "value", _number)
        return lambda u: np.full_like(np.asarray(u, dtype=float), value)
    if kind == "piecewise":
        breaks = np.asarray(_field(d, "breaks", _numbers))
        values = np.asarray(_field(d, "values", _numbers))
        if values.size != breaks.size + 1:
            raise InputError("piecewise sigma needs len(values) == len(breaks) + 1")
        if breaks.size and (np.any(np.diff(breaks) <= 0) or breaks[0] <= 0 or breaks[-1] >= 1):
            raise InputError("piecewise sigma breaks must increase strictly inside (0, 1)")

        def sigma(u):
            idx = np.searchsorted(breaks, np.asarray(u, dtype=float), side="right")
            return values[idx]

        return sigma
    if kind == "harmonic":
        const, amp_sin, amp_cos = (_field(d, k, _number, 0.0) for k in ("const", "sin", "cos"))
        cycles = _field(d, "cycles", _number, 1.0)

        def sigma(u):
            theta = math.tau * cycles * np.asarray(u, dtype=float)
            return const + amp_sin * np.sin(theta) + amp_cos * np.cos(theta)

        return sigma
    raise InputError(f"unknown sigma kind {kind!r}")


def spec_from_dict(d: dict) -> ModelSpec:
    """Build a ModelSpec from its declarative (JSON-friendly) form."""
    family = _field(d, "family", str, None)
    if family == "ar_ma":
        return ArmaSpec(ar=_field(d, "ar", _numbers, ()), ma=_field(d, "ma", _numbers, ()))
    if family == "changepoint_ar":
        segments = _field(d, "segments",
                          lambda v: tuple((_number(frac), _numbers(ar)) for frac, ar in v))
        return ChangepointArSpec(segments=segments)
    if family == "tv_innovation_ar":
        return TvInnovationArSpec(ar=_field(d, "ar", _numbers),
                                  sigma=_field(d, "sigma", sigma_from_dict))
    if family == "modulated_noise":
        return ModulatedNoiseSpec(sigma=_field(d, "sigma", sigma_from_dict))
    raise InputError(f"unknown model family {family!r}")


PRESET_NAMES = ("model1", "model2", "model3", "model4", "model5", "model6")


def model_preset(name: str, T: int = 512) -> ModelSpec:
    """Benchmark model by name ("model1" .. "model6").

    model1  AR(1), coefficient 0.8 (stationary null).
    model2  ARMA(2, 3): X_t = X_{t-1} - 0.7 X_{t-2} + e_t + 0.3 e_{t-1}
            + 2 e_{t-3}. Note the minus on the lag-2 AR term (AR polynomial
            1 - z + 0.7 z^2, roots modulus 1.195); the sign-flipped variant
            is explosive and the stability check rejects it.
    model3  AR(2) 1.5 / -0.75 switching to AR(1) 0.8 at t = 0.75 T.
    model4  AR(1) 0.8 with smoothly varying innovation scale (depends on T,
            see above).
    model5  AR(1) 0.8 switching to 0.6 at t = 0.5 T (small change).
    model6  independent noise with three-level piecewise scale.

    Raises InputError unless T is a positive integer.
    """
    T = _checked_int(T, "T", positive=True)
    if name == "model1":
        return ArmaSpec(ar=(0.8,))
    if name == "model2":
        return ArmaSpec(ar=(1.0, -0.7), ma=(0.3, 0.0, 2.0))
    if name == "model3":
        return ChangepointArSpec(segments=((0.75, (1.5, -0.75)), (1.0, (0.8,))))
    if name == "model4":
        return TvInnovationArSpec(ar=(0.8,), sigma=_sigma_model4(T))
    if name == "model5":
        return ChangepointArSpec(segments=((0.5, (0.8,)), (1.0, (0.6,))))
    if name == "model6":
        return ModulatedNoiseSpec(sigma=_sigma_piecewise6)
    raise InputError(
        f"unknown model {name!r}; presets are {', '.join(PRESET_NAMES)}"
    )
