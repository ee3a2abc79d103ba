"""Property-based checks, derandomized so that every run draws the same
examples."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dftstat import local_spectrum, model_preset, power_profile  # noqa: E402
from dftstat.experiments import (  # noqa: E402
    _eval_local,
    _time_average,
    _trapezoid_weights,
    _u_fourier,
)

PRESETS = ("model1", "model2", "model3", "model4", "model5", "model6")


def power_profile_evaluating_every_shift(f_local, lags, T, u_points, omega_points):
    """``power_profile`` with fbar(w + 2 pi r / T) evaluated on the grid for
    every lag, whether or not the shift is whole grid steps."""
    u = np.linspace(0.0, 1.0, u_points)
    w = np.linspace(0.0, 2 * math.pi, omega_points)
    wu = _trapezoid_weights(u)
    vals = _eval_local(f_local, u, w)
    fbar = _time_average(wu, vals)
    shifted = np.array([
        _time_average(wu, _eval_local(f_local, u, (w + 2 * math.pi * r / T) % (2 * math.pi)))
        for r in lags])
    integrand = _u_fourier(vals, lags) / (np.sqrt(fbar) * np.sqrt(shifted))
    return integrand @ _trapezoid_weights(w) / (2 * math.pi)


@st.composite
def shift_cases(draw):
    T = draw(st.integers(2, 2048))
    omega_points = draw(st.integers(256, 1025))
    # a multiple of T / gcd(T, omega_points - 1) is a whole-step shift
    step = T // math.gcd(T, omega_points - 1)
    size = st.one_of(st.integers(1, 3 * T), st.integers(1, 3 * T // step).map(lambda k: k * step))
    lags = draw(st.lists(st.tuples(st.sampled_from((-1, 1)), size).map(math.prod),
                         min_size=1, max_size=4))
    return draw(st.sampled_from(PRESETS)), draw(st.booleans()), T, omega_points, lags


def tilted(f):
    """f times 2 + sin(w): not even in w, so B depends on the shift's sign."""
    return lambda u, w: f(u, w) * (2.0 + np.sin(w))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(shift_cases())
def test_power_profile_equals_evaluating_every_shift(case):
    name, tilt, T, omega_points, lags = case
    f = local_spectrum(model_preset(name, 512))
    if tilt:
        f = tilted(f)
    got = power_profile(f, lags, u_points=129, omega_points=omega_points, T=T).B_values
    want = power_profile_evaluating_every_shift(f, lags, T, 129, omega_points)
    # models 1 and 2 have B = 0, up to rounding of the O(1) integrand
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)) + 1e-15
