"""Kernel-smoothed spectral density estimation from the periodogram.

The estimator is a circular weighted average of the periodogram on the
canonical frequency grid,

    fhat(w_k) = sum_j W(j) I_{k+j mod T},

where the weights come from a symmetric kernel on [-1/2, 1/2] evaluated at
j / (b*T) and renormalized to sum to exactly one. The index window has
half-width floor(b*T/2), so the bandwidth b is the covered fraction of the
whole frequency circle. After smoothing, values are floored at a relative
ridge to keep the standardization denominators away from zero.

The test smooths the periodogram of a real series, which is symmetric
(I_{T-k} = I_k), so it needs fhat only at k = 0..T/2: that half padded by
H mirrored values on each side, for window half-width H, is enough. The
sum is computed with real FFTs, as a linear convolution of the padded half
zero-padded to a 5-smooth length, in O(T log T) time whatever the
bandwidth; it agrees with the direct sum to rounding (1e-13 relative is
checked in the tests).
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BandwidthWarning, InputError, _of_type, _within
from .numerics import _fast_length

_KERNEL_KINDS = ("daniell", "bartlett")
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _user_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, counted from this function's caller,
    of the first frame outside the package, so that a warning names the
    user's line however deep in the library it is raised."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class KernelSpec:
    """Smoothing kernel: flat (daniell) or triangular (bartlett).

    ``bandwidth`` is the covered fraction of the frequency circle, in
    (0, 1/2). ``None`` means the default T**(-1/3), resolved against the
    series length at use time (the geometric midpoint of the admissible
    window (T**-1/2, T**-1/4)).
    """

    kind: str = "daniell"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
            raise InputError(
                f"unknown kernel kind {self.kind!r}; expected one of {_KERNEL_KINDS}"
            )
        if self.bandwidth is not None and not _within(self.bandwidth, 0.0, 0.5):
            raise InputError(f"bandwidth must lie in (0, 1/2), got {self.bandwidth}")

    def resolve_bandwidth(self, T: int) -> float:
        """Concrete bandwidth for a length-T series, warning when it falls
        outside the admissible window (T**-1/2, T**-1/4)."""
        if self.bandwidth is not None:
            b = self.bandwidth
        else:
            b = min(T ** (-1.0 / 3.0), 0.499)  # cap keeps tiny T valid
        if not (T ** -0.5 < b < T ** -0.25):
            warnings.warn(
                f"bandwidth {b:.4g} outside the admissible window "
                f"({T ** -0.5:.4g}, {T ** -0.25:.4g}) for T={T}",
                BandwidthWarning,
                stacklevel=_user_stacklevel(),
            )
        return b


def _kernel_weights(kind: str, b: float, T: int) -> np.ndarray:
    """Discrete smoothing weights over index offsets -H..H, summing to 1."""
    bT = b * T
    if bT < 3.0:
        raise InputError(
            f"kernel window covers fewer than 3 frequencies (b*T = {bT:.3g})"
        )
    half = int(math.floor(bT / 2.0))
    offsets = np.arange(-half, half + 1)
    x = offsets / bT  # in [-1/2, 1/2]
    if kind == "daniell":
        w = np.ones_like(x, dtype=float)
    else:  # bartlett
        w = 2.0 * (1.0 - 2.0 * np.abs(x))
    return w / w.sum()


def _smoother(kernel: KernelSpec | None, T: int, ridge_factor: float):
    """Check ``ridge_factor`` and resolve the kernel for length T.

    Returns the kernel with its bandwidth resolved, its weights, the
    transform length n of ``_smooth_half`` and the weights' real transform
    at n; all depend only on T, so a batch of equal-length series shares
    them. n is the 5-smooth length of the padded half, m = T//2 + 1 + 2H,
    fast even for prime m and within 16% of it (a power of two may be 2m).
    """
    if not _within(ridge_factor, 0.0, math.inf, closed=True):
        raise InputError(f"ridge_factor must be finite and >= 0, got {ridge_factor}")
    kern = KernelSpec() if kernel is None else _of_type(kernel, "kernel", KernelSpec)
    b = kern.resolve_bandwidth(T)
    weights = _kernel_weights(kern.kind, b, T)
    n = _fast_length(T // 2 + weights.size)
    return KernelSpec(kern.kind, b), weights, n, np.fft.rfft(weights, n)


def _smooth_half(buf: np.ndarray, T: int, H: int, spectrum: np.ndarray,
                 ridge_factor: float) -> np.ndarray:
    """The floored estimate of a symmetric length-T periodogram at k = 0..T//2.

    ``buf`` has the last-axis length n and ``spectrum`` the weights'
    transform from :func:`_smoother`, H being the window half-width;
    ``buf[..., H:H + T//2 + 1]`` holds I_k at k = 0..T//2 and the rest of
    buf is scratch. Since I_{-k} = I_k and I_{T-k} = I_k, the circular sum at
    those k needs only that half padded by H mirrored values on each side,
    I_{-j} = I_j and I_{h+j} = I_{T-h-j} (h = T//2, j = 1..H), which are
    written around it. As the weights are symmetric, entry i = 2H..m-1 of
    the circular convolution of buf with them is the sum at k = i - 2H,
    whose window lies inside those m padded values; buf is zeroed past m, as
    the transforms mix every entry into every output. The ridge is
    ridge_factor times the mean over the whole circle. The floored estimate
    is written over buf and returned as a view of it. Rows are smoothed
    independently.
    """
    h = T // 2
    m = h + 1 + 2 * H
    P = buf[..., H:H + h + 1]
    # H is below T/4, so both pads read inside k = 1..h
    buf[..., :H] = P[..., H:0:-1]
    buf[..., H + h + 1:m] = P[..., T - h - 1:T - h - H - 1:-1]
    buf[..., m:] = 0.0
    total = 2.0 * P.sum(axis=-1, keepdims=True) - P[..., :1]
    if T % 2 == 0:
        total -= P[..., h:]
    product = np.fft.rfft(buf, axis=-1)
    product *= spectrum
    np.fft.irfft(product, buf.shape[-1], axis=-1, out=buf)
    f = buf[..., 2 * H:m]
    return np.maximum(f, ridge_factor * total / T, out=f)
