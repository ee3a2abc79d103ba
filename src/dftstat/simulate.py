"""Generators for benchmark processes: stationary ARMA, change-point AR,
AR with smoothly time-varying innovation scale, and variance-modulated
noise.

All recursive models are driven by one Gaussian stream per replication and
drop ``burn_in`` initial steps, so a realization is a pure function of
(spec, config). Time-varying quantities live in rescaled time u = t/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InvalidInputError, StabilityError
from .numerics import RngStream, gauss_stream

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------


def _ar_root_check(ar, unsafe: bool, context: str):
    """Stationarity check: roots of 1 - a1 z - ... - ap z^p outside the unit
    circle. ``unsafe=True`` downgrades the failure to a pass-through."""
    a = np.asarray(ar, dtype=float)
    if a.size == 0:
        return
    coeffs = np.concatenate([-a[::-1], [1.0]])  # descending powers for np.roots
    roots = np.roots(coeffs)
    if roots.size == 0:
        return
    min_mod = float(np.min(np.abs(roots)))
    if min_mod <= 1.0 + 1e-10 and not unsafe:
        raise StabilityError(
            f"{context}: AR polynomial has a root of modulus {min_mod:.6g} "
            "on or inside the unit circle (pass unsafe=True to override)",
            root_modulus=min_mod,
        )


@dataclass(frozen=True)
class ArmaSpec:
    """Stationary ARMA: X_t = sum_i ar_i X_{t-i} + e_t + sum_j ma_j e_{t-j}."""

    ar: tuple = ()
    ma: tuple = ()

    def validate(self, unsafe: bool = False):
        _ar_root_check(self.ar, unsafe, "ArmaSpec")


@dataclass(frozen=True)
class ChangepointArSpec:
    """Piecewise AR with coefficient switches at given time fractions.

    ``segments`` holds (fraction, ar_coeffs) pairs with strictly increasing
    fractions ending at 1.0; segment j generates observations for
    floor(f_{j-1} T) < t <= floor(f_j T), seeded by the previous segment's
    last values (no re-initialization at the switch).
    """

    segments: tuple

    def validate(self, unsafe: bool = False):
        if len(self.segments) < 1:
            raise InvalidInputError("at least one segment is required")
        prev = 0.0
        for frac, ar in self.segments:
            if not (prev < frac <= 1.0):
                raise InvalidInputError(
                    f"segment fractions must increase strictly within (0, 1], got {frac}"
                )
            prev = frac
            _ar_root_check(ar, unsafe, f"segment ending at {frac}")
        if self.segments[-1][0] != 1.0:
            raise InvalidInputError("the last segment fraction must be 1.0")


@dataclass(frozen=True)
class TvInnovationArSpec:
    """AR with time-varying innovation scale: X_t = sum ar_i X_{t-i} + s(t/T) e_t.

    The scale function may change sign (only s(u)^2 enters the second order
    structure); the local spectral density uses s(u)^2.
    """

    ar: tuple
    sigma: Callable[[np.ndarray], np.ndarray]

    def validate(self, unsafe: bool = False):
        _ar_root_check(self.ar, unsafe, "TvInnovationArSpec")
        if not callable(self.sigma):
            raise InvalidInputError("sigma must be callable on [0, 1]")


@dataclass(frozen=True)
class ModulatedNoiseSpec:
    """Independent noise with time-varying scale: X_t = s(t/T) e_t, s > 0."""

    sigma: Callable[[np.ndarray], np.ndarray]

    def validate(self, unsafe: bool = False):
        if not callable(self.sigma):
            raise InvalidInputError("sigma must be callable on [0, 1]")
        probe = np.asarray(self.sigma(np.linspace(0.0, 1.0, 1025)), dtype=float)
        if np.any(probe <= 0.0) and not unsafe:
            raise InvalidInputError("modulated-noise sigma must be positive on [0, 1]")


ModelSpec = Union[ArmaSpec, ChangepointArSpec, TvInnovationArSpec, ModulatedNoiseSpec]


@dataclass(frozen=True)
class GeneratorConfig:
    """Length, burn-in and random stream for one realization."""

    T: int
    burn_in: int = 500
    rng: RngStream = RngStream(0, 0)

    def __post_init__(self):
        if self.T < 32:
            raise InvalidInputError(f"T must be >= 32, got {self.T}")
        if self.burn_in < 0:
            raise InvalidInputError(f"burn_in must be >= 0, got {self.burn_in}")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def innovation_count(spec: ModelSpec, config: GeneratorConfig) -> int:
    """Number of innovation draws one realization consumes."""
    if isinstance(spec, ModulatedNoiseSpec):
        return config.T  # no recursion, burn-in not needed
    return config.T + config.burn_in


def generate(spec: ModelSpec, config: GeneratorConfig, innovations=None,
             unsafe: bool = False) -> np.ndarray:
    """Draw one length-T realization of the given model.

    Parameters
    ----------
    spec : ModelSpec
        Process description; AR polynomials are checked for stationarity
        (override with ``unsafe=True``).
    config : GeneratorConfig
        Length, burn-in and stream identity.
    innovations : array_like, optional
        Externally supplied innovation sequence of length
        ``innovation_count(spec, config)``; replaces the Gaussian stream.
        Lets callers reuse identical noise across model variants.
    """
    spec.validate(unsafe=unsafe)
    n = innovation_count(spec, config)
    if innovations is None:
        eps = gauss_stream(config.rng, n)
    else:
        eps = np.asarray(innovations, dtype=float)
        if eps.shape != (n,):
            raise InvalidInputError(
                f"innovations must have shape ({n},), got {eps.shape}"
            )
    return _filter_rows(spec, eps[None, :], config.T, config.burn_in)[0]


def _filter_rows(spec: ModelSpec, eps: np.ndarray, T: int, burn: int) -> np.ndarray:
    """Realizations of ``spec`` driven by the innovation rows of ``eps``.

    Row i of the result depends only on row i of ``eps``; ``generate`` is the
    one-row case. The spec is not validated here.
    """
    if isinstance(spec, ModulatedNoiseSpec):
        u = np.arange(1, T + 1) / T
        return np.asarray(spec.sigma(u), dtype=float) * eps

    if isinstance(spec, ChangepointArSpec):
        return _changepoint_rows(spec, eps, T, burn)

    from scipy.signal import lfilter  # deferred: it takes about 1 s to import

    if isinstance(spec, ArmaSpec):
        b = np.concatenate([[1.0], np.asarray(spec.ma, dtype=float)])
        a = np.concatenate([[1.0], -np.asarray(spec.ar, dtype=float)])
        return lfilter(b, a, eps, axis=-1)[:, burn:]

    if isinstance(spec, TvInnovationArSpec):
        t = np.arange(1 - burn, T + 1)
        u = np.clip(t / T, 0.0, 1.0)  # burn-in runs at the initial scale
        scale = np.asarray(spec.sigma(u), dtype=float)
        a = np.concatenate([[1.0], -np.asarray(spec.ar, dtype=float)])
        return lfilter([1.0], a, scale * eps, axis=-1)[:, burn:]

    raise InvalidInputError(f"unsupported model spec {type(spec).__name__}")


_CHANGEPOINT_MEMORY = 16  # past outputs a segment can see at its switch


def _changepoint_rows(spec: ChangepointArSpec, eps, T: int, burn: int) -> np.ndarray:
    from scipy.signal import lfilter  # deferred: it takes about 1 s to import

    bounds = [0] + [int(math.floor(frac * T)) for frac, _ in spec.segments]
    bounds[-1] = T  # floor(1.0 * T) == T, kept explicit
    # y holds the burn-in too: the first switch can look back into it
    y = np.empty((eps.shape[0], burn + T))
    pos = 0  # consumed innovations == outputs written
    for j, (_, ar) in enumerate(spec.segments):
        a = np.concatenate([[1.0], -np.asarray(ar, dtype=float)])
        n_seg = bounds[j + 1] - bounds[j]
        if j == 0:
            y[:, : burn + n_seg] = lfilter([1.0], a, eps[:, : burn + n_seg], axis=-1)
            pos = burn + n_seg
        elif n_seg:
            # continue from the previous segment's last values (no re-initialization)
            past = y[:, max(0, pos - _CHANGEPOINT_MEMORY): pos][:, ::-1]
            zi = _ar_initial_state(a, past)
            y[:, pos: pos + n_seg], _ = lfilter([1.0], a, eps[:, pos: pos + n_seg],
                                                axis=-1, zi=zi)
            pos += n_seg
    return y[:, burn:]


def _ar_initial_state(a: np.ndarray, past: np.ndarray) -> np.ndarray:
    """Row-wise ``lfiltic([1.0], a, past)``: the transposed direct-form state of
    the all-pole filter 1/a given past outputs, most recent first (missing
    values count as zero)."""
    p = a.size - 1
    y = np.zeros((past.shape[0], p))
    k = min(p, past.shape[1])
    y[:, :k] = past[:, :k]
    zi = np.empty((past.shape[0], p))
    for m in range(p):
        zi[:, m] = -np.sum(a[m + 1:] * y[:, : p - m], axis=-1)
    return zi


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
        return np.abs(num) ** 2 / (np.abs(den) ** 2 * _TWO_PI)

    return spec


def local_spectrum(spec: ModelSpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Time-varying spectral density f(u, w) of the model.

    The returned callable broadcasts over numpy arrays in both arguments.
    Stationary models give a u-constant surface; the modulated-noise family
    gives s(u)^2 / (2*pi).
    """
    if isinstance(spec, ArmaSpec):
        s = _arma_spectrum_fn(spec.ar, spec.ma)

        def f(u, omega):
            u = np.asarray(u, dtype=float)
            return np.broadcast_arrays(u, s(omega))[1].copy()

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
        sig = spec.sigma

        def f(u, omega):
            u = np.asarray(u, dtype=float)
            return np.asarray(sig(u), dtype=float) ** 2 * s(omega)

        return f

    if isinstance(spec, ModulatedNoiseSpec):
        sig = spec.sigma

        def f(u, omega):
            u = np.asarray(u, dtype=float)
            scale = np.asarray(sig(u), dtype=float) ** 2 / _TWO_PI
            return np.broadcast_arrays(scale, np.asarray(omega, dtype=float))[0].copy()

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
    idx = np.clip(np.floor(u * 20.0).astype(int), 0, 19)
    out = _SIGMA6_LEVELS[idx]
    return out if out.ndim else float(out)


def _sigma_model4(T: int):
    """Smooth innovation scale 1/2 + sin(2*pi*t/512) + 0.3*cos(2*pi*t/512).

    The 512 in the denominator is fixed regardless of T, so at T = 256 only
    half a cycle is seen (which is why the scale barely varies there).
    """
    cycles = T / 512.0

    def sigma(u):
        theta = _TWO_PI * cycles * np.asarray(u, dtype=float)
        return 0.5 + np.sin(theta) + 0.3 * np.cos(theta)

    return sigma


def sigma_from_dict(d: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Build a scale function on [0, 1] from its declarative form.

    Supported kinds:
      constant   {"kind": "constant", "value": c}
      piecewise  {"kind": "piecewise", "breaks": [u_1..], "values": [v_0..]}
                 right-open bins; len(values) == len(breaks) + 1
      harmonic   {"kind": "harmonic", "const": c, "sin": s, "cos": q,
                  "cycles": m}  ->  c + s*sin(2*pi*m*u) + q*cos(2*pi*m*u)
    """
    kind = d.get("kind")
    if kind == "constant":
        value = float(d["value"])
        return lambda u: np.full_like(np.asarray(u, dtype=float), value)
    if kind == "piecewise":
        breaks = np.asarray(d["breaks"], dtype=float)
        values = np.asarray(d["values"], dtype=float)
        if values.size != breaks.size + 1:
            raise InvalidInputError("piecewise sigma needs len(values) == len(breaks) + 1")
        if breaks.size and (np.any(np.diff(breaks) <= 0) or breaks[0] <= 0 or breaks[-1] >= 1):
            raise InvalidInputError("piecewise sigma breaks must increase strictly inside (0, 1)")

        def sigma(u):
            idx = np.searchsorted(breaks, np.asarray(u, dtype=float), side="right")
            return values[idx]

        return sigma
    if kind == "harmonic":
        const = float(d.get("const", 0.0))
        amp_sin = float(d.get("sin", 0.0))
        amp_cos = float(d.get("cos", 0.0))
        cycles = float(d.get("cycles", 1.0))

        def sigma(u):
            theta = _TWO_PI * cycles * np.asarray(u, dtype=float)
            return const + amp_sin * np.sin(theta) + amp_cos * np.cos(theta)

        return sigma
    raise InvalidInputError(f"unknown sigma kind {kind!r}")


def spec_from_dict(d: dict) -> ModelSpec:
    """Build a ModelSpec from its declarative (JSON-friendly) form."""
    family = d.get("family")
    if family == "ar_ma":
        return ArmaSpec(ar=tuple(d.get("ar", ())), ma=tuple(d.get("ma", ())))
    if family == "changepoint_ar":
        segments = tuple((float(frac), tuple(ar)) for frac, ar in d["segments"])
        return ChangepointArSpec(segments=segments)
    if family == "tv_innovation_ar":
        return TvInnovationArSpec(ar=tuple(d["ar"]), sigma=sigma_from_dict(d["sigma"]))
    if family == "modulated_noise":
        return ModulatedNoiseSpec(sigma=sigma_from_dict(d["sigma"]))
    raise InvalidInputError(f"unknown model family {family!r}")


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
    """
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
    raise InvalidInputError(
        f"unknown model {name!r}; presets are {', '.join(PRESET_NAMES)}"
    )
